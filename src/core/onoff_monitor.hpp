// The on-off monitor is the 1-bit IntervalMonitor (see
// core/interval_monitor.hpp). The alias stays only for code outside the
// library that still names the old class; library code, tests and tools
// name IntervalMonitor.
#pragma once

#include "core/interval_monitor.hpp"

namespace ranm {

using OnOffMonitor = IntervalMonitor;

}  // namespace ranm
