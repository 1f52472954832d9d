// ArrayElementBase service methods (defined here to break the header cycle
// between chare.hpp and runtime.hpp).

#include "runtime/collection.hpp"

#include <utility>

#include "lb/manager.hpp"
#include "runtime/runtime.hpp"

namespace charm {

Runtime& ArrayElementBase::rt() const { return Runtime::current(); }

void ArrayElementBase::pup(pup::Er& p) {
  p | migratable_;
  p | lb_load_;
  p | lb_round_load_;
  p | redux_seq_;
  p | epoch_;
}

void ArrayElementBase::contribute(std::vector<double> value, ReduceOp op,
                                  const Callback& cb) {
  rt().contribute(*this, std::move(value), /*has_nums=*/true, op, {}, /*has_chunk=*/false,
                  cb);
}

void ArrayElementBase::contribute(double value, ReduceOp op, const Callback& cb) {
  // A pooled one-element buffer, so steady-state scalar reductions allocate
  // nothing.
  std::vector<double> nums = rt().acquire_nums(1);
  nums.push_back(value);
  rt().contribute(*this, std::move(nums), /*has_nums=*/true, op, {}, /*has_chunk=*/false, cb);
}

void ArrayElementBase::contribute(const Callback& cb) {
  rt().contribute(*this, {}, /*has_nums=*/false, ReduceOp::kSum, {}, /*has_chunk=*/false,
                  cb);
}

void ArrayElementBase::contribute_bytes(std::vector<std::byte> chunk, const Callback& cb) {
  rt().contribute(*this, {}, /*has_nums=*/false, ReduceOp::kSum, std::move(chunk),
                  /*has_chunk=*/true, cb);
}

void ArrayElementBase::migrate_to(int pe) { rt().migrate(col_, idx_, pe); }

void ArrayElementBase::at_sync() { rt().lb().element_sync(*this); }

}  // namespace charm
