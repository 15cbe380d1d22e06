#include "core/flowspec.h"

#include <sstream>

namespace ispn::core {

bool FlowSpec::valid() const {
  switch (service) {
    case net::ServiceClass::kGuaranteed:
      return guaranteed.has_value() && !predicted.has_value() &&
             guaranteed->clock_rate > 0;
    case net::ServiceClass::kPredicted:
      return predicted.has_value() && !guaranteed.has_value() &&
             predicted->bucket.rate > 0 && predicted->bucket.depth >= 0 &&
             predicted->target_delay > 0 && predicted->target_loss >= 0 &&
             predicted->target_loss <= 1;
    case net::ServiceClass::kDatagram:
      return !guaranteed.has_value() && !predicted.has_value();
  }
  return false;
}

std::string describe(const FlowSpec& spec) {
  std::ostringstream out;
  out << "flow " << spec.flow << " ";
  switch (spec.service) {
    case net::ServiceClass::kGuaranteed:
      out << "Guaranteed r=" << spec.guaranteed->clock_rate / 1000.0
          << " kb/s";
      break;
    case net::ServiceClass::kPredicted:
      out << "Predicted (r=" << spec.predicted->bucket.rate / 1000.0
          << " kb/s, b=" << spec.predicted->bucket.depth / 1000.0
          << " kb) D=" << spec.predicted->target_delay * 1000.0
          << " ms L=" << spec.predicted->target_loss;
      break;
    case net::ServiceClass::kDatagram:
      out << "Datagram";
      break;
  }
  return out.str();
}

}  // namespace ispn::core
