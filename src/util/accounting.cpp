#include "util/accounting.hpp"

#include <algorithm>
#include <sstream>

namespace dp {

void ResourceMeter::merge(const ResourceMeter& other) noexcept {
#define DP_SUM(name) name##_ += other.name##_;
#define DP_LEVEL(level, peak) \
  DP_SUM(level)               \
  peak##_ = std::max({peak##_, other.peak##_, level##_});
  DP_RESOURCE_COUNTERS(DP_SUM, DP_LEVEL)
#undef DP_SUM
#undef DP_LEVEL
}

std::string ResourceMeter::summary() const {
  std::ostringstream os;
#define DP_SUM(name) os << " " #name "=" << name##_;
#define DP_LEVEL(level, peak) DP_SUM(level) DP_SUM(peak)
  DP_RESOURCE_COUNTERS(DP_SUM, DP_LEVEL)
#undef DP_SUM
#undef DP_LEVEL
  return os.str().substr(1);
}

}  // namespace dp
