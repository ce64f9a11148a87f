/**
 * @file
 * Pinned instantiation of MaterializationCache. The template lives in
 * the header (every member is inline there); compiling ImageCache here
 * once keeps the per-TU cost of including artifact_cache.h down
 * and makes template build errors surface in exactly one place.
 */

#include "medusa/artifact_cache.h"

namespace medusa::core {

template class MaterializationCache<MaterializedImage>;

} // namespace medusa::core
