#pragma once
// Shared test fixture: a Machine + Runtime pair with the default test
// configuration, plus the element-scan helper most tests re-implemented.
// Include from tests/{core,features,apps}; keep assertions out of here so
// the fixture stays usable from any gtest file.

#include <cstdint>

#include "runtime/runtime.hpp"
#include "sim/machine.hpp"

namespace charmtest {

struct Harness {
  sim::Machine machine;
  charm::Runtime rt;
  explicit Harness(int npes, sim::NetworkParams net = {}, charm::RuntimeConfig cfg = {})
      : machine(sim::MachineConfig{npes, net}), rt(machine, cfg) {}

  /// Tree-collectives fixture: CollectiveTopology::kTree with the given arity.
  static charm::RuntimeConfig tree_config(int arity) {
    charm::RuntimeConfig cfg;
    cfg.collectives = charm::CollectiveTopology::kTree;
    cfg.tree_fanout = arity;
    return cfg;
  }

  /// Scans every PE for element `ix` of `col`; reports the owner via
  /// `pe_out` when found.
  template <typename T, typename Ix = std::int32_t>
  T* find(charm::CollectionId col, Ix ix, int* pe_out = nullptr) {
    for (int pe = 0; pe < rt.npes(); ++pe) {
      auto* f = rt.collection(col).find(pe, charm::IndexTraits<Ix>::encode(ix));
      if (f != nullptr) {
        if (pe_out != nullptr) *pe_out = pe;
        return static_cast<T*>(f);
      }
    }
    return nullptr;
  }
};

}  // namespace charmtest
