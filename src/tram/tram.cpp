#include "tram/tram.hpp"

#include <algorithm>
#include <utility>

namespace charm::tram {

Core::Core(Runtime& rt, CollectionId target, std::size_t buffer_items)
    : rt_(rt),
      col_(target),
      buffer_items_(buffer_items),
      pes_(static_cast<std::size_t>(rt.npes())) {}

int Core::resolve_dest(int pe, const ObjIndex& idx) {
  Collection& c = rt_.collection(col_);
  const int dest = rt_.route_point(c, idx, pe);
  if (dest != pe || rt_.home_pe(idx) != pe) return dest;
  // This PE is the home, so its record knows where the element lives.
  const PeLocal* pl = c.local_if(pe);
  const HomeRecord* r = pl != nullptr ? pl->home.find(idx) : nullptr;
  return r != nullptr && r->location != kInvalidPe ? r->location : pe;
}

int Core::better_location(int pe, const ObjIndex& idx) {
  Collection& c = rt_.collection(col_);
  const PeLocal* pl = c.local_if(pe);
  int better = kInvalidPe;
  if (rt_.home_pe(idx) == pe) {
    if (pl != nullptr) {
      const HomeRecord* r = pl->home.find(idx);
      if (r != nullptr && !r->in_transit && r->location != kInvalidPe &&
          r->location != pe) {
        better = r->location;
      }
    }
  } else {
    if (pl != nullptr) {
      const int* loc = pl->loc_cache.find(idx);
      if (loc != nullptr && *loc != pe) better = *loc;
    }
    if (better == kInvalidPe) better = rt_.home_pe(idx);
  }
  return better;
}

void Core::local_miss(int pe, const ObjIndex& idx, EntryId ep,
                      Payload payload, bool flush_through) {
  const int better = better_location(pe, idx);
  if (better != kInvalidPe && better != pe) {
    route_packed(pe, idx, ep, better, payload.data(), payload.size(), flush_through);
    rt_.release_payload(std::move(payload));
    return;
  }
  // Mid-migration or unknown: the point-send protocol buffers at the home
  // until the element lands.
  rt_.send_point(col_, idx, ep, std::move(payload));
}

void Core::route_packed(int pe, const ObjIndex& idx, EntryId ep, int dest,
                        const std::byte* data, std::size_t len, bool flush_through) {
  append_frame(pe, idx, ep, dest, flush_through, [data, len](std::vector<std::byte>& frames) {
    frames.insert(frames.end(), data, data + len);
  });
}

Core::Buffer& Core::buffer_for(int pe, int peer) {
  auto& buffers = pes_.ref(static_cast<std::size_t>(pe)).buffers;
  auto it = buffers.find(peer);
  if (it == buffers.end()) {
    it = buffers.emplace(peer, Buffer{}).first;
    it->second.frames = rt_.acquire_payload(0);
  }
  return it->second;
}

void Core::flush_buffer(int pe, int peer, bool flush_through) {
  PeState* state = pes_.probe(static_cast<std::size_t>(pe));
  if (state == nullptr) return;  // never buffered anything: nothing to flush
  auto it = state->buffers.find(peer);
  if (it == state->buffers.end() || it->second.count == 0) return;
  Buffer buf = std::move(it->second);
  state->buffers.erase(it);

  const std::size_t bytes = buf.payload_bytes + buf.count * kItemOverhead;
  ++batches_;
  routed_items_ += buf.count;
  batch_bytes_ += bytes;

  rt_.send_control(peer, bytes, [this, peer, flush_through, buf = std::move(buf)]() mutable {
    deliver_batch(peer, std::move(buf), flush_through);
  });
}

void Core::deliver_batch(int pe, Buffer buf, bool flush_through) {
  Collection& c = rt_.collection(col_);
  std::size_t off = 0;
  while (off < buf.frames.size()) {
    FrameHead head;
    std::memcpy(&head, buf.frames.data() + off, sizeof(FrameHead));
    const std::byte* data = buf.frames.data() + off + sizeof(FrameHead);
    off += sizeof(FrameHead) + head.len;
    if (head.dest_pe == pe) {
      ArrayElementBase* elem = c.find(pe, head.idx);
      rt_.charge(kDeliverCost);
      if (elem != nullptr) {
        rt_.deliver_local(*elem, head.ep, data, head.len);
      } else {
        local_miss(pe, head.idx, head.ep, rt_.copy_payload(data, head.len), flush_through);
      }
    } else {
      route_packed(pe, head.idx, head.ep, head.dest_pe, data, head.len,
                   flush_through);
    }
  }
  rt_.release_payload(std::move(buf.frames));
  if (flush_through) flush_pe(pe, /*flush_through=*/true);
}

void Core::flush_pe(int pe, bool flush_through) {
  PeState* state = pes_.probe(static_cast<std::size_t>(pe));
  if (state == nullptr) return;
  std::vector<int> peers;
  peers.reserve(state->buffers.size());
  for (const auto& [peer, buf] : state->buffers)
    if (buf.count != 0) peers.push_back(peer);
  std::sort(peers.begin(), peers.end());  // deterministic flush order
  for (int peer : peers) flush_buffer(pe, peer, flush_through);
}

void Core::flush_all() {
  for (int pe = 0; pe < rt_.npes(); ++pe) {
    ++control_msgs_;
    control_bytes_ += 16;
    rt_.send_control(pe, 16, [this, pe]() { flush_pe(pe, /*flush_through=*/true); });
  }
}

}  // namespace charm::tram
