/**
 * @file
 * Error-path tests for the binary serialization layer: truncated
 * buffers and oversized length fields must come back as Status errors,
 * never crashes — a corrupted on-disk image is a recoverable cold-start
 * failure. The image decoder's own corruption cases live in image_test,
 * lint_test (the tests/data corpus) and property_test.
 */

#include <gtest/gtest.h>

#include "common/serialize.h"

namespace medusa {
namespace {

TEST(SerializeRobustness, EmptyBufferFailsEveryPrimitive)
{
    BinaryReader r(std::vector<u8>{});
    EXPECT_FALSE(r.readU8().isOk());
    EXPECT_FALSE(r.readU32().isOk());
    EXPECT_FALSE(r.readU64().isOk());
    EXPECT_FALSE(r.readI64().isOk());
    EXPECT_FALSE(r.readF32().isOk());
    EXPECT_FALSE(r.readF64().isOk());
    EXPECT_FALSE(r.readBool().isOk());
    EXPECT_FALSE(r.readString().isOk());
    EXPECT_FALSE(r.readBytes().isOk());
}

TEST(SerializeRobustness, MidValueTruncationFails)
{
    BinaryWriter w;
    w.writeU64(0x0123456789abcdefull);
    std::vector<u8> bytes = w.takeBytes();
    bytes.resize(5); // cut inside the u64
    BinaryReader r(std::move(bytes));
    auto v = r.readU64();
    ASSERT_FALSE(v.isOk());
    EXPECT_NE(v.status().message().find("truncated"),
              std::string::npos);
}

TEST(SerializeRobustness, StringLengthBeyondDataFails)
{
    BinaryWriter w;
    w.writeU64(1ull << 40); // claims a terabyte of string
    BinaryReader r(w.takeBytes());
    auto s = r.readString();
    ASSERT_FALSE(s.isOk());
    EXPECT_NE(s.status().message().find("truncated"),
              std::string::npos);
}

TEST(SerializeRobustness, BytesLengthBeyondDataFails)
{
    BinaryWriter w;
    w.writeU64(0xffffffffffffffffull); // overflow-bait length
    w.writeU32(0);
    BinaryReader r(w.takeBytes());
    EXPECT_FALSE(r.readBytes().isOk());
}

TEST(SerializeRobustness, VectorCountBeyondDataFails)
{
    BinaryWriter w;
    w.writeU64(1ull << 50); // element count far beyond the stream
    BinaryReader r(w.takeBytes());
    auto v = r.readVector<u64>(
        [](BinaryReader &rr) { return rr.readU64(); });
    ASSERT_FALSE(v.isOk());
    EXPECT_NE(v.status().message().find("count exceeds"),
              std::string::npos);
}

TEST(SerializeRobustness, VectorElementTruncationFails)
{
    BinaryWriter w;
    w.writeU64(3); // three u64 elements promised...
    w.writeU64(1);
    w.writeU64(2); // ...but the third is missing
    BinaryReader r(w.takeBytes());
    auto v = r.readVector<u64>(
        [](BinaryReader &rr) { return rr.readU64(); });
    EXPECT_FALSE(v.isOk());
}

TEST(SerializeRobustness, RoundTripSurvivesAndEndsExactly)
{
    BinaryWriter w;
    w.writeU32(7);
    w.writeString("medusa");
    w.writeBytes({1, 2, 3});
    w.writeBool(true);
    BinaryReader r(w.takeBytes());
    EXPECT_EQ(r.readU32().value(), 7u);
    EXPECT_EQ(r.readString().value(), "medusa");
    EXPECT_EQ(r.readBytes().value(), (std::vector<u8>{1, 2, 3}));
    EXPECT_TRUE(r.readBool().value());
    EXPECT_TRUE(r.atEnd());
}

} // namespace
} // namespace medusa
