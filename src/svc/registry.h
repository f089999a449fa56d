#ifndef VQDR_SVC_REGISTRY_H_
#define VQDR_SVC_REGISTRY_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "guard/budget.h"
#include "svc/proto.h"

// The string-keyed operation registry the service dispatches through (the
// function_manager idiom). Handlers are pure request processors: they
// receive the parsed request plus the admitted budget and return a
// Response — admission, op identity, and serialization all live in
// Service. Every handler runs on the thread that called Service::Handle;
// control handlers (registered with kInline) bypass admission so the
// control plane stays responsive under overload.

namespace vqdr::svc {

/// How a registered operation is executed.
enum class Dispatch {
  /// Admitted, then run under the request budget and op identity.
  kAdmitted,
  /// Run immediately, no admission, no budget.
  kInline,
};

using Handler = std::function<Response(const Request&, guard::Budget&)>;

class OpRegistry {
 public:
  /// Registers `name` (replacing any previous handler).
  void Register(std::string name, Dispatch dispatch, Handler handler);

  struct Entry {
    Dispatch dispatch = Dispatch::kAdmitted;
    Handler handler;
  };

  /// The entry for `name`, or nullptr for an unknown operation.
  const Entry* Find(const std::string& name) const;

  /// Registered operation names, sorted.
  std::vector<std::string> Names() const;

 private:
  std::map<std::string, Entry> entries_;
};

}  // namespace vqdr::svc

#endif  // VQDR_SVC_REGISTRY_H_
