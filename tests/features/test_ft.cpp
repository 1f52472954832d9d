// Fault tolerance tests: disk checkpoint/restart on a different PE count,
// double in-memory checkpointing, failure injection and rollback recovery.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "ft/checkpoint.hpp"
#include "ft/mem_checkpoint.hpp"
#include "runtime/charm.hpp"
#include "trace/trace.hpp"

#include "test_util.hpp"

namespace {

using namespace charm;

struct Msg {
  int v = 0;
  void pup(pup::Er& p) { p | v; }
};

class Cell : public charm::ArrayElement<Cell, std::int32_t> {
 public:
  std::vector<double> data;
  int steps = 0;

  void init() {
    data.assign(64, static_cast<double>(index()));
  }
  void work(const Msg& m) {
    steps += m.v;
    for (auto& d : data) d += 1.0;
    charm::charge(1e-6);
  }
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | data;
    p | steps;
  }
};

using charmtest::Harness;

Cell* find_cell(Runtime& rt, CollectionId col, std::int32_t ix, int* pe_out = nullptr) {
  for (int pe = 0; pe < rt.npes(); ++pe) {
    auto* f = rt.collection(col).find(pe, IndexTraits<std::int32_t>::encode(ix));
    if (f) {
      if (pe_out) *pe_out = pe;
      return static_cast<Cell*>(f);
    }
  }
  return nullptr;
}

/// One checkpoint file per test: ctest runs each case as its own process,
/// in parallel, so a shared path lets one case overwrite another's file.
std::string ckpt_path() {
  return std::string("/tmp/charmlike_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".ckpt";
}

TEST(DiskCheckpoint, RestartOnDifferentPeCountPreservesState) {
  const int n = 24;
  {
    Harness h(6);
    auto arr = ArrayProxy<Cell>::create(h.rt);
    for (int i = 0; i < n; ++i) arr.seed(i, i % 6);
    bool ckpt_done = false;
    h.rt.on_pe(0, [&] {
      arr.broadcast<&Cell::init>();
      arr.broadcast<&Cell::work>(Msg{3});
      arr.broadcast<&Cell::work>(Msg{4});
      // Checkpoint at the step boundary: wait until the work has landed.
      h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
        ft::checkpoint_to_file(h.rt, ckpt_path(),
                               Callback::to_function([&](ReductionResult&&) {
                                 ckpt_done = true;
                               }));
      }));
    });
    h.machine.run();
    ASSERT_TRUE(ckpt_done);
  }
  {
    // Restart on 4 PEs (original run used 6).
    Harness h(4);
    auto arr = ArrayProxy<Cell>::create(h.rt);
    const std::size_t restored = ft::restart_from_file(h.rt, ckpt_path());
    EXPECT_EQ(restored, static_cast<std::size_t>(n));
    EXPECT_EQ(h.rt.collection(arr.id()).total_elements, n);
    for (int i = 0; i < n; ++i) {
      Cell* c = find_cell(h.rt, arr.id(), i);
      ASSERT_NE(c, nullptr) << i;
      EXPECT_EQ(c->steps, 7);
      ASSERT_EQ(c->data.size(), 64u);
      EXPECT_EQ(c->data[0], static_cast<double>(i) + 2.0);
    }
    // Restarted elements are fully functional.
    h.rt.on_pe(0, [&] { arr.broadcast<&Cell::work>(Msg{1}); });
    h.machine.run();
    EXPECT_EQ(find_cell(h.rt, arr.id(), 0)->steps, 8);
  }
  std::remove(ckpt_path().c_str());
}

TEST(DiskCheckpoint, CheckpointTimeScalesWithDataPerPe) {
  auto ckpt_time = [](int npes) {
    Harness h(npes);
    auto arr = ArrayProxy<Cell>::create(h.rt);
    for (int i = 0; i < 64; ++i) arr.seed(i, i % npes);
    double t0 = 0, t1 = -1;
    h.rt.on_pe(0, [&] {
      arr.broadcast<&Cell::init>();
      h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
        t0 = charm::now();
        ft::checkpoint_to_file(h.rt, ckpt_path(),
                               Callback::to_function([&](ReductionResult&&) {
                                 t1 = charm::now();
                               }));
      }));
    });
    h.machine.run();
    return t1 - t0;
  };
  // More PEs => less data per PE => faster parallel checkpoint (Fig 8 right).
  EXPECT_GT(ckpt_time(2), ckpt_time(16));
  std::remove(ckpt_path().c_str());
}

TEST(DiskCheckpoint, RefusedWhileAPeIsFailed) {
  // The write leg to a failed PE never runs, so `done` could never fire.
  std::remove(ckpt_path().c_str());
  Harness h(4);
  auto arr = ArrayProxy<Cell>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  h.machine.fail_pe(2);
  bool refused = false, done = false;
  h.rt.on_pe(0, [&] {
    try {
      ft::checkpoint_to_file(h.rt, ckpt_path(), Callback::to_function([&](ReductionResult&&) {
        done = true;
      }));
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("PE 2"), std::string::npos) << e.what();
      refused = true;
    }
  });
  h.machine.run();
  EXPECT_TRUE(refused);
  EXPECT_FALSE(done);
  EXPECT_FALSE(std::ifstream(ckpt_path()).good()) << "nothing is written";
  std::remove(ckpt_path().c_str());
}

/// Checkpoints `n` cells of each of `cols` collections on 4 PEs to
/// ckpt_path() and returns the file's bytes.
std::vector<char> write_cells(int n, int cols) {
  Harness h(4);
  for (int c = 0; c < cols; ++c) {
    auto arr = ArrayProxy<Cell>::create(h.rt);
    for (int i = 0; i < n; ++i) arr.seed(i, i % 4);
  }
  bool done = false;
  h.rt.on_pe(0, [&] {
    ft::checkpoint_to_file(h.rt, ckpt_path(),
                           Callback::to_function([&](ReductionResult&&) { done = true; }));
  });
  h.machine.run();
  EXPECT_TRUE(done);
  std::ifstream in(ckpt_path(), std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Writes `bytes` to ckpt_path(), restarts one Cell collection on 4 PEs from
/// it, and expects a std::runtime_error that names the file and contains
/// `reason`, with no element seeded.
void expect_restart_refused(const std::vector<char>& bytes, const std::string& reason) {
  {
    std::ofstream out(ckpt_path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  Harness h(4);
  auto arr = ArrayProxy<Cell>::create(h.rt);
  try {
    ft::restart_from_file(h.rt, ckpt_path());
    ADD_FAILURE() << "restart accepted a bad file (" << reason << ")";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(ckpt_path()), std::string::npos) << what;
    EXPECT_NE(what.find(reason), std::string::npos) << what;
  }
  EXPECT_EQ(h.rt.collection(arr.id()).total_elements, 0);
  for (int pe = 0; pe < 4; ++pe)
    EXPECT_TRUE(h.rt.collection(arr.id()).local(pe).elems.empty()) << "PE " << pe;
  std::remove(ckpt_path().c_str());
}

TEST(DiskCheckpoint, TruncatedFileSeedsNothing) {
  std::vector<char> bytes = write_cells(8, 1);
  ASSERT_GT(bytes.size(), 40u);
  bytes.resize(bytes.size() - 40);
  expect_restart_refused(bytes, "truncated");
}

TEST(DiskCheckpoint, TrailingBytesAreRejected) {
  std::vector<char> bytes = write_cells(8, 1);
  bytes.insert(bytes.end(), 8, '\0');
  expect_restart_refused(bytes, "8 trailing bytes");
}

TEST(DiskCheckpoint, HugeClaimedImageIsRefusedBeforeAllocating) {
  // The one image's byte count is patched to claim 2^40 bytes, far more
  // than the file holds: refused as truncated, never allocated.
  std::vector<char> bytes = write_cells(1, 1);
  const std::size_t len_at = 2 * sizeof(std::uint64_t) + pup::size_of(CollectionId{}) +
                             pup::size_of(ObjIndex{});
  const std::uint64_t huge = std::uint64_t{1} << 40;
  ASSERT_GE(bytes.size(), len_at + sizeof huge);
  std::memcpy(bytes.data() + len_at, &huge, sizeof huge);
  expect_restart_refused(bytes, "truncated");
}

TEST(DiskCheckpoint, UnknownCollectionIdSeedsNothing) {
  // Two collections checkpointed, one created by the restart program.
  expect_restart_refused(write_cells(8, 2), "unknown collection id 1");
}

TEST(MemCheckpoint, CheckpointAndRecoverFromFailure) {
  Harness h(6);
  auto arr = ArrayProxy<Cell>::create(h.rt);
  for (int i = 0; i < 18; ++i) arr.seed(i, i % 6);
  ft::MemCheckpointer ckpt(h.rt);
  bool recovered = false;

  h.rt.on_pe(0, [&] {
    arr.broadcast<&Cell::init>();
    arr.broadcast<&Cell::work>(Msg{5});
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        // Progress AFTER the checkpoint: must be rolled back on recovery.
        arr.broadcast<&Cell::work>(Msg{100});
        h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
          ckpt.fail_and_recover(3, Callback::to_function([&](ReductionResult&&) {
            recovered = true;
          }));
        }));
      }));
    }));
  });
  h.machine.run();
  ASSERT_TRUE(recovered);
  EXPECT_GT(ckpt.checkpoint_bytes(), 0u);

  // Every element must exist and reflect the checkpointed state (steps == 5),
  // not the post-checkpoint progress.
  for (int i = 0; i < 18; ++i) {
    Cell* c = find_cell(h.rt, arr.id(), i);
    ASSERT_NE(c, nullptr) << i;
    EXPECT_EQ(c->steps, 5) << "element " << i << " was not rolled back";
  }
  // The recovered system is functional: run more work.
  h.machine.resume();
  h.rt.on_pe(0, [&] { arr.broadcast<&Cell::work>(Msg{1}); });
  h.machine.run();
  EXPECT_EQ(find_cell(h.rt, arr.id(), 7)->steps, 6);
}

/// Seeded with a value; no default constructor, so it can never be rebuilt
/// from packed state.
class NoDefaultCell : public charm::ArrayElement<NoDefaultCell, std::int32_t> {
 public:
  explicit NoDefaultCell(int v) : v_(v) {}
  void pup(pup::Er& p) override {
    ArrayElementBase::pup(p);
    p | v_;
  }

 private:
  int v_;
};

TEST(MemCheckpoint, RestoringTypeWithoutDefaultConstructorThrows) {
  Harness h(4);
  auto arr = ArrayProxy<NoDefaultCell>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4, i);
  ft::MemCheckpointer ckpt(h.rt);
  h.rt.on_pe(0, [&] {
    ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
      ckpt.fail_and_recover(2, Callback::to_function([](ReductionResult&&) {}));
    }));
  });
  try {
    h.machine.run();
    FAIL() << "restoring a type without a default constructor did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("NoDefaultCell"), std::string::npos) << e.what();
  }
}

TEST(MemCheckpoint, VictimElementsRestoredFromBuddy) {
  Harness h(4);
  auto arr = ArrayProxy<Cell>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  ft::MemCheckpointer ckpt(h.rt);
  bool recovered = false;
  std::vector<std::int32_t> victims_elements;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Cell::init>();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        for (auto& [ix, obj] : h.rt.collection(arr.id()).local(2).elems)
          victims_elements.push_back(IndexTraits<std::int32_t>::decode(ix));
        ckpt.fail_and_recover(2, Callback::to_function([&](ReductionResult&&) {
          recovered = true;
        }));
      }));
    }));
  });
  h.machine.run();
  ASSERT_TRUE(recovered);
  ASSERT_FALSE(victims_elements.empty());
  for (std::int32_t ix : victims_elements) {
    int pe = -1;
    Cell* c = find_cell(h.rt, arr.id(), ix, &pe);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(pe, 2) << "restored onto the replacement PE";
    EXPECT_EQ(c->data[0], static_cast<double>(ix));
  }
}

TEST(MemCheckpoint, OverlappingCheckpointIsRefused) {
  // A second checkpoint while one is staged would pack into the same staging
  // store and commit twice; it is refused, and the first still recovers all.
  Harness h(4);
  auto arr = ArrayProxy<Cell>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  ft::MemCheckpointer ckpt(h.rt);
  bool refused = false, recovered = false;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Cell::init>();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        ckpt.fail_and_recover(1, Callback::to_function([&](ReductionResult&&) {
          recovered = true;
        }));
      }));
      try {
        ckpt.checkpoint(Callback::ignore());
      } catch (const std::logic_error&) {
        refused = true;
      }
    }));
  });
  h.machine.run();
  EXPECT_TRUE(refused);
  ASSERT_TRUE(recovered);
  EXPECT_EQ(ckpt.checkpoints_taken(), 1);
  EXPECT_EQ(h.rt.collection(arr.id()).total_elements, 8);
  for (int i = 0; i < 8; ++i) EXPECT_NE(find_cell(h.rt, arr.id(), i), nullptr) << i;
}

TEST(MemCheckpoint, FailWithoutCheckpointThrows) {
  Harness h(2);
  ft::MemCheckpointer ckpt(h.rt);
  EXPECT_THROW(ckpt.fail_and_recover(0, Callback::ignore()), std::logic_error);
}

TEST(MemCheckpoint, InMemoryFasterThanDisk) {
  // The motivation for double in-memory checkpointing (§III-B).
  Harness h(4);
  auto arr = ArrayProxy<Cell>::create(h.rt);
  for (int i = 0; i < 32; ++i) arr.seed(i, i % 4);
  ft::MemCheckpointer mem(h.rt);
  double t_mem = -1, t_disk = -1, t0 = 0;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Cell::init>();
    t0 = charm::now();
    mem.checkpoint(Callback::to_function([&](ReductionResult&&) {
      t_mem = charm::now() - t0;
      const double t1 = charm::now();
      ft::checkpoint_to_file(h.rt, ckpt_path(),
                             Callback::to_function([&, t1](ReductionResult&&) {
                               t_disk = charm::now() - t1;
                             }));
    }));
  });
  h.machine.run();
  ASSERT_GT(t_mem, 0);
  ASSERT_GT(t_disk, 0);
  EXPECT_LT(t_mem, t_disk);
  std::remove(ckpt_path().c_str());
}

TEST(MemCheckpoint, BackToBackFailuresCoalesceIntoOneRecovery) {
  // A second fail_and_recover before the first detection window closes must
  // extend the pending recovery, and both victims must come back in one
  // combined restore (each callback still fires).
  Harness h(6);
  trace::Tracer tracer;
  h.machine.set_tracer(&tracer);
  auto arr = ArrayProxy<Cell>::create(h.rt);
  for (int i = 0; i < 18; ++i) arr.seed(i, i % 6);
  ft::MemCheckpointer ckpt(h.rt);
  int recovered = 0;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Cell::init>();
    arr.broadcast<&Cell::work>(Msg{5});
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        ckpt.fail_and_recover(1, Callback::to_function([&](ReductionResult&&) {
          ++recovered;
        }));
        // Non-adjacent second victim, same detection window.
        ckpt.fail_and_recover(4, Callback::to_function([&](ReductionResult&&) {
          ++recovered;
        }));
        EXPECT_TRUE(ckpt.recovery_pending());
      }));
    }));
  });
  h.machine.run();
  EXPECT_EQ(recovered, 2);
  EXPECT_EQ(ckpt.recoveries_completed(), 1);
  // The trace holds both failures, then one restore of two victims.
  std::vector<int> failed;
  std::vector<int> restored;
  for (const trace::Event& e : tracer.events()) {
    if (e.kind != trace::Kind::kPhase) continue;
    if (e.phase == sim::Phase::kFailure) failed.push_back(e.a);
    if (e.phase == sim::Phase::kRestore) {
      EXPECT_EQ(failed.size(), 2u) << "restore traced before both failures";
      restored.push_back(e.a);
    }
  }
  EXPECT_EQ(failed, (std::vector<int>{1, 4}));
  EXPECT_EQ(restored, (std::vector<int>{2}));
  for (int i = 0; i < 18; ++i) {
    Cell* c = find_cell(h.rt, arr.id(), i);
    ASSERT_NE(c, nullptr) << i;
    EXPECT_EQ(c->steps, 5);
  }
}

TEST(MemCheckpoint, VictimEqualBuddyOfPriorVictimRecoversAfterReReplication) {
  // PE 3 is the buddy holding PE 2's checkpoint copies.  After PE 2's
  // recovery completes, the lost double copies are re-replicated, so PE 3
  // failing next is still recoverable.
  Harness h(6);
  auto arr = ArrayProxy<Cell>::create(h.rt);
  for (int i = 0; i < 18; ++i) arr.seed(i, i % 6);
  ft::MemCheckpointer ckpt(h.rt);
  bool second_recovered = false;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Cell::init>();
    arr.broadcast<&Cell::work>(Msg{5});
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        ckpt.fail_and_recover(2, Callback::to_function([&](ReductionResult&&) {
          ckpt.fail_and_recover(3, Callback::to_function([&](ReductionResult&&) {
            second_recovered = true;
          }));
        }));
      }));
    }));
  });
  h.machine.run();
  ASSERT_TRUE(second_recovered);
  EXPECT_EQ(ckpt.recoveries_completed(), 2);
  for (int i = 0; i < 18; ++i) {
    Cell* c = find_cell(h.rt, arr.id(), i);
    ASSERT_NE(c, nullptr) << i;
    EXPECT_EQ(c->steps, 5) << "element " << i << " not rolled back correctly";
  }
}

TEST(MemCheckpoint, SimultaneousAdjacentFailuresAreCleanlyUnrecoverable) {
  // Victim and its buddy in the same detection window: the only copy of the
  // first victim's state is gone.  Must be a clean error, not UB or a hang.
  Harness h(6);
  auto arr = ArrayProxy<Cell>::create(h.rt);
  for (int i = 0; i < 18; ++i) arr.seed(i, i % 6);
  ft::MemCheckpointer ckpt(h.rt);
  bool threw = false;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Cell::init>();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        ckpt.fail_and_recover(2, Callback::ignore());
        try {
          ckpt.fail_and_recover(3, Callback::ignore());
        } catch (const std::runtime_error&) {
          threw = true;
        }
      }));
    }));
  });
  h.machine.run();
  EXPECT_TRUE(threw);
}

// Parameterized: recovery works no matter which PE dies.
class FailAnyPe : public ::testing::TestWithParam<int> {};

TEST_P(FailAnyPe, RecoveryRestoresFullElementSet) {
  const int victim = GetParam();
  Harness h(5);
  auto arr = ArrayProxy<Cell>::create(h.rt);
  for (int i = 0; i < 20; ++i) arr.seed(i, i % 5);
  ft::MemCheckpointer ckpt(h.rt);
  bool recovered = false;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Cell::init>();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        ckpt.fail_and_recover(victim, Callback::to_function([&](ReductionResult&&) {
          recovered = true;
        }));
      }));
    }));
  });
  h.machine.run();
  ASSERT_TRUE(recovered);
  EXPECT_EQ(h.rt.collection(arr.id()).total_elements, 20);
  for (int i = 0; i < 20; ++i) EXPECT_NE(find_cell(h.rt, arr.id(), i), nullptr) << i;
}

INSTANTIATE_TEST_SUITE_P(Victims, FailAnyPe, ::testing::Values(0, 1, 2, 3, 4));

TEST(MemCheckpoint, OutOfRangeVictimIsRefusedBeforeAnyStateChanges) {
  // A refused victim must not abort the checkpoint in flight or start a
  // recovery: both bad ids throw while the second checkpoint is staged, and
  // that checkpoint still commits.
  Harness h(4);
  auto arr = ArrayProxy<Cell>::create(h.rt);
  for (int i = 0; i < 8; ++i) arr.seed(i, i % 4);
  ft::MemCheckpointer ckpt(h.rt);
  bool refused = false, second_done = false;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Cell::init>();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
          second_done = true;
        }));
        for (const int bad : {-1, h.rt.npes()})
          EXPECT_THROW(ckpt.fail_and_recover(bad, Callback::ignore()), std::out_of_range)
              << bad;
        EXPECT_EQ(ckpt.checkpoints_aborted(), 0);
        EXPECT_FALSE(ckpt.recovery_pending());
        refused = true;
      }));
    }));
  });
  h.machine.run();
  ASSERT_TRUE(refused);
  EXPECT_TRUE(second_done) << "the checkpoint in flight was abandoned";
  EXPECT_EQ(ckpt.checkpoints_taken(), 2);
  EXPECT_EQ(ckpt.checkpoints_aborted(), 0);
  EXPECT_EQ(ckpt.recoveries_completed(), 0);
}

TEST(MemCheckpoint, ManualFailureDisposesQueuedAndInflightMessages) {
  // fail_and_recover quarantines its victim as an injected failure does: a
  // message waiting in the victim's ready queue and one still on the wire
  // are both disposed, never executed, and the quiescence count balances.
  Harness h(4);
  const int victim = 2;
  std::int32_t ix = 0;
  while (h.rt.home_pe(IndexTraits<std::int32_t>::encode(ix)) != victim) ++ix;
  auto arr = ArrayProxy<Cell>::create(h.rt);
  arr.seed(ix, victim);  // lives at its home, so sends go straight to the victim
  ft::MemCheckpointer ckpt(h.rt);
  const sim::Machine& m = h.machine;
  const double detect = ft::MemCkptParams{}.detect_delay;
  std::uint64_t executed = 0, dropped = 0;
  bool checked = false, recovered = false;
  h.rt.on_pe(0, [&] {
    arr.broadcast<&Cell::init>();
    h.rt.start_quiescence(Callback::to_function([&](ReductionResult&&) {
      ckpt.checkpoint(Callback::to_function([&](ReductionResult&&) {
        // Keep the victim busy for 5 ms so the first send waits in its queue.
        h.rt.on_pe(victim, [] { charm::charge(5e-3); });
        h.rt.after(0, 1e-3, [&] {
          arr[ix].send<&Cell::work>(Msg{1});
          h.rt.after(0, 1e-3, [&] {
            ASSERT_EQ(m.pe(victim).queue_length(), 1u);
            executed = m.pe(victim).executed();
            dropped = m.messages_dropped();
            arr[ix].send<&Cell::work>(Msg{1});  // still in flight at the failure
            ckpt.fail_and_recover(victim, Callback::to_function([&](ReductionResult&&) {
              recovered = true;
            }));
            EXPECT_EQ(m.pe(victim).queue_length(), 0u);
            // Halfway through detection: the victim is still quarantined.
            h.rt.after(0, detect / 2, [&] {
              EXPECT_TRUE(m.pe_failed(victim));
              EXPECT_EQ(m.pe(victim).executed(), executed);
              EXPECT_EQ(m.messages_dropped(), dropped + 2);
              checked = true;
            });
          });
        });
      }));
    }));
  });
  h.machine.run();
  ASSERT_TRUE(checked);
  EXPECT_TRUE(recovered);
  EXPECT_FALSE(m.pe_failed(victim));
  EXPECT_EQ(h.rt.outstanding(), 0);
  Cell* c = find_cell(h.rt, arr.id(), ix);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->steps, 0) << "rolled back to the checkpoint";
}

}  // namespace
