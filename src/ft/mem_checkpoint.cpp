#include "ft/mem_checkpoint.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "lb/manager.hpp"
#include "sim/fault_injector.hpp"

namespace charm::ft {

namespace {
constexpr double kPackBandwidth = 6.0e9;  ///< local PUP/copy bandwidth (B/s)
constexpr double kRestartBarriers = 3.0;  ///< restart barriers (paper: "several")
}  // namespace

MemCheckpointer::MemCheckpointer(Runtime& rt, MemCkptParams params)
    : rt_(rt),
      params_(params),
      images_(static_cast<std::size_t>(rt.npes())),
      buddy_valid_(static_cast<std::size_t>(rt.npes()), 0) {}

void MemCheckpointer::checkpoint(Callback done) {
  if (recovery_pending() || ckpt_in_progress_)
    throw std::logic_error(std::string("ft::MemCheckpointer::checkpoint during ") +
                           (ckpt_in_progress_ ? "another checkpoint" : "pending recovery"));
  const double begin = rt_.now();
  const int P = rt_.active_pes();
  if (sim::FaultInjector* fi = rt_.machine().fault_injector())
    fi->notify_checkpoint_begin(begin);

  // Stage into a scratch store; the committed checkpoint stays authoritative
  // until every PE has both copies in place.
  stage_.assign(images_.size(), {});
  stage_bytes_ = 0;
  ckpt_in_progress_ = true;
  const std::uint64_t ep = epoch_;

  auto remaining = std::make_shared<int>(P);
  for (int pe = 0; pe < P; ++pe) {
    rt_.send_control(pe, 16, [this, ep, pe, P, remaining, done, begin]() {
      if (epoch_ != ep) return;  // aborted by a failure
      // Pack every local element of checkpointable collections.
      std::vector<ElementImage>& store = stage_[static_cast<std::size_t>(pe)];
      std::vector<std::byte> buf;  // reused, so each image is allocated at its size
      double bytes = 0;
      for (std::size_t ci = 0; ci < rt_.collection_count(); ++ci) {
        Collection& c = rt_.collection(static_cast<CollectionId>(ci));
        if (!c.checkpointable()) continue;
        PeLocal* pl = c.local_if(pe);
        if (pl == nullptr) continue;  // PE hosts nothing of this collection
        for (auto& [ix, obj] : pl->elems) {
          buf.clear();
          pup::Packer pk(buf);
          obj->pup(pk);
          store.push_back(ElementImage{c.id, ix, buf});
          bytes += static_cast<double>(buf.size());
        }
      }
      stage_bytes_ += static_cast<std::uint64_t>(bytes);
      rt_.charge(bytes / kPackBandwidth);  // local copy

      // Ship the second copy to the buddy (real message cost; the host keeps one).
      rt_.send_control(
          (pe + 1) % P, static_cast<std::size_t>(bytes),
          [this, ep, P, bytes, remaining, done, begin]() {
            if (epoch_ != ep) return;
            rt_.charge(bytes / kPackBandwidth);  // copy-in
            if (--*remaining != 0) return;
            rt_.after(rt_.my_pe(), rt_.tree_wave_latency(), [this, ep, P, done, begin]() {
              if (epoch_ != ep) return;
              // Commit atomically.
              images_ = std::exchange(stage_, {});
              committed_pes_ = P;
              std::fill(buddy_valid_.begin(), buddy_valid_.end(), char{1});
              total_bytes_ = stage_bytes_;
              ++checkpoints_;
              ckpt_in_progress_ = false;
              rt_.machine().note_phase(
                  sim::PhaseEvent{sim::Phase::kCheckpoint, /*pe=*/0, begin, rt_.now(),
                                  /*aux=*/0, static_cast<double>(total_bytes_)});
              done.invoke(rt_, ReductionResult{});
            });
          });
    });
  }
}

void MemCheckpointer::fail_and_recover(int victim, Callback done) {
  if (victim < 0 || victim >= rt_.active_pes())
    throw std::out_of_range("ft::MemCheckpointer::fail_and_recover: PE " +
                            std::to_string(victim) + " outside [0, " +
                            std::to_string(rt_.active_pes()) + ")");
  on_failure(victim, done);
}

void MemCheckpointer::attach_injector(sim::FaultInjector& fi) {
  fi.set_listener([this](const sim::FaultRecord& rec) {
    on_failure(rec.pe, Callback::ignore());
  });
}

void MemCheckpointer::on_failure(int victim, Callback done) {
  if (checkpoints_ == 0)
    throw std::logic_error(
        "ft::MemCheckpointer: PE failure with no committed checkpoint");
  if (rt_.active_pes() != committed_pes_)
    throw std::logic_error(
        "ft::MemCheckpointer: PE failure at " + std::to_string(rt_.active_pes()) +
        " active PEs, but the committed checkpoint holds " + std::to_string(committed_pes_) +
        " PEs' images; checkpoint again after a shrink or expand");
  for (int v : pending_victims_) {
    if (v == victim) {  // duplicate report of an already-pending victim
      if (done.valid()) recovery_done_cbs_.push_back(done);
      return;
    }
  }
  ++epoch_;  // invalidates every in-flight checkpoint/restore leg
  if (ckpt_in_progress_) {
    ckpt_in_progress_ = false;
    ++ckpt_aborted_;
    stage_.clear();
  }
  // Quarantine the victim after the epoch bump, so a stale leg disposed on
  // it bails.  Machine::fail_pe reports the failure; an injected victim is
  // already quarantined and this is a no-op.
  rt_.machine().fail_pe(victim);
  // The victim's process held its own images and the buddy copy of its
  // predecessor's; the host store keeps the images, which its buddy holds.
  buddy_valid_[static_cast<std::size_t>(victim)] = 0;
  if (pending_victims_.empty()) burst_begin_ = rt_.now();
  pending_victims_.push_back(victim);
  if (done.valid()) recovery_done_cbs_.push_back(done);
  if (failure_observer_) failure_observer_(victim);

  // Every pending victim must still have a live buddy store; losing a PE and
  // its buddy between re-replications defeats double checkpointing.
  const int P = rt_.active_pes();
  for (int v : pending_victims_) {
    if (buddy_valid_[static_cast<std::size_t>((v + 1) % P)] == 0)
      throw std::runtime_error(
          "ft::MemCheckpointer: unrecoverable failure: buddy checkpoint of PE " +
          std::to_string(v) + " was lost");
  }

  // (Re)start the detection timer on a surviving PE; a further failure bumps
  // the epoch and the stale timer becomes a no-op, so recovery begins
  // detect_delay after the *last* failure of a burst.
  int watcher = 0;
  for (int p = 0; p < P; ++p) {
    if (rt_.pe_alive(p)) {
      watcher = p;
      break;
    }
  }
  const std::uint64_t ep = epoch_;
  rt_.after(watcher, params_.detect_delay, [this, ep]() {
    if (epoch_ != ep || pending_victims_.empty()) return;
    begin_restore();
  });
}

void MemCheckpointer::begin_restore() {
  const std::uint64_t ep = epoch_;
  const int P = rt_.active_pes();

  // Replacement processes take over the victims' slots.
  for (int v : pending_victims_) rt_.machine().revive_pe(v);

  // A failure mid-AtSync-round loses that round's messages for good; abort it
  // so the replayed elements can sync afresh.
  rt_.lb().reset_round_state();

  // Phase 1: every PE discards its live elements (rollback).
  for (std::size_t ci = 0; ci < rt_.collection_count(); ++ci) {
    Collection& c = rt_.collection(static_cast<CollectionId>(ci));
    if (!c.checkpointable()) continue;
    rt_.clear_reductions(c.id);
    // Touched-only rollback sweep; extract_local mutates the visited block's
    // maps but never materializes new blocks, so iteration stays safe.
    c.pe.for_each_touched([&](std::size_t pe, PeLocal& pl) {
      std::vector<ObjIndex> ids;
      ids.reserve(pl.elems.size());
      for (auto& [ix, obj] : pl.elems) ids.push_back(ix);
      for (const ObjIndex& ix : ids)
        rt_.extract_local(c.id, ix, static_cast<int>(pe));
    });
  }

  // Phase 2: restore.  Live PEs restore their own images from local memory;
  // each replacement gets the failed PE's images shipped from its buddy.  One
  // extra leg per victim models re-replicating the double copies lost with it.
  auto remaining =
      std::make_shared<int>(P + static_cast<int>(pending_victims_.size()));
  auto finish = [this, ep, remaining]() {
    if (epoch_ != ep) return;  // a new failure interrupted this restore
    if (--*remaining != 0) return;
    // Re-replicated: each victim again holds its predecessor's buddy copy.
    for (int v : pending_victims_) buddy_valid_[static_cast<std::size_t>(v)] = 1;
    rt_.rebuild_location_tables();
    rt_.after(rt_.my_pe(), kRestartBarriers * 2.0 * rt_.tree_wave_latency(),
              [this, ep]() {
                if (epoch_ != ep) return;
                rt_.machine().note_phase(sim::PhaseEvent{
                    sim::Phase::kRestore, /*pe=*/0, burst_begin_, rt_.now(),
                    static_cast<int>(pending_victims_.size()), rt_.now() - burst_begin_});
                ++recoveries_;
                pending_victims_.clear();
                std::vector<Callback> cbs = std::move(recovery_done_cbs_);
                recovery_done_cbs_.clear();
                for (const Callback& cb : cbs) cb.invoke(rt_, ReductionResult{});
                if (recovery_observer_) recovery_observer_();
              });
  };

  for (int pe = 0; pe < P; ++pe) {
    const bool is_victim =
        std::find(pending_victims_.begin(), pending_victims_.end(), pe) !=
        pending_victims_.end();
    const std::vector<ElementImage>* store = &images_[static_cast<std::size_t>(pe)];
    double bytes = 0;
    for (const ElementImage& img : *store) bytes += static_cast<double>(img.bytes.size());

    auto restore_here = [this, ep, pe, store, bytes, finish]() {
      if (epoch_ != ep) return;
      rt_.charge(bytes / kPackBandwidth);  // unpack
      for (const ElementImage& img : *store) {
        const ChareTypeId type = rt_.collection(img.col).type;
        rt_.seed_element(img.col, img.idx, Registry::instance().unpack_element(type, img.bytes),
                         pe);
      }
      finish();
    };

    if (is_victim) {
      // Buddy ships the copies across the network first.
      rt_.send_control((pe + 1) % P, 16, [this, ep, pe, bytes, restore_here]() {
        if (epoch_ != ep) return;
        rt_.send_control(pe, static_cast<std::size_t>(bytes), restore_here);
      });
    } else {
      rt_.send_control(pe, 16, restore_here);
    }
  }

  // Re-replication traffic: each victim's predecessor ships its images back
  // so the victim again holds its predecessor's buddy copy.
  for (int v : pending_victims_) {
    const int pred = (v - 1 + P) % P;
    double bytes = 0;
    for (const ElementImage& img : images_[static_cast<std::size_t>(pred)])
      bytes += static_cast<double>(img.bytes.size());
    rt_.send_control(pred, 16, [this, ep, v, bytes, finish]() {
      if (epoch_ != ep) return;
      rt_.send_control(v, static_cast<std::size_t>(bytes), finish);
    });
  }
}

}  // namespace charm::ft
