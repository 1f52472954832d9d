#include "ft/checkpoint.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <vector>

namespace charm::ft {

namespace {

constexpr std::uint64_t kMagic = 0x434B50543134ull;  // "CKPT14"
constexpr double kDiskBandwidth = 1.0e9;  ///< per-PE file-write bandwidth (B/s)
constexpr double kOpenOverhead = 0.5e-3;  ///< per-PE file open/close cost (s)

}  // namespace

void checkpoint_to_file(Runtime& rt, const std::string& path, Callback done) {
  for (int pe = 0; pe < rt.npes(); ++pe)
    if (!rt.pe_alive(pe))
      throw std::logic_error("ft::checkpoint_to_file: PE " + std::to_string(pe) +
                             " is failed; its write leg could never complete");

  // Host-side serialization (contents), with per-PE costs charged in virtual
  // time for the pack and the parallel file write.  Each ElementImage packs
  // straight into the blob; the count and its byte count are patched in after.
  std::vector<std::byte> blob;
  std::vector<double> pe_bytes(static_cast<std::size_t>(rt.npes()), 0.0);
  pup::Packer pk(blob);
  std::uint64_t magic = kMagic, n = 0;
  pk | magic;
  pk | n;
  for (std::size_t ci = 0; ci < rt.collection_count(); ++ci) {
    Collection& c = rt.collection(static_cast<CollectionId>(ci));
    if (!c.checkpointable()) continue;
    c.pe.for_each_touched([&](std::size_t pe, PeLocal& pl) {
      for (auto& [ix, obj] : pl.elems) {
        ElementImage head{c.id, ix, {}};
        pk | head;  // col, idx and an empty byte vector's zero count
        const std::size_t len_at = blob.size() - sizeof(std::uint64_t);
        obj->pup(pk);
        const std::uint64_t len = blob.size() - len_at - sizeof len;
        std::memcpy(blob.data() + len_at, &len, sizeof len);
        pe_bytes[pe] += static_cast<double>(len);
        ++n;
      }
    });
  }
  std::memcpy(blob.data() + sizeof magic, &n, sizeof n);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("checkpoint_to_file: cannot open " + path);
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));

  // Model: every PE packs and writes its share in parallel; completion is a
  // barrier over the slowest PE.
  const double ckpt_begin = rt.now();
  auto remaining = std::make_shared<int>(rt.npes());
  for (int pe = 0; pe < rt.npes(); ++pe) {
    const double cost =
        kOpenOverhead + pe_bytes[static_cast<std::size_t>(pe)] / kDiskBandwidth;
    rt.send_control(pe, 32, [&rt, cost, remaining, done, ckpt_begin]() {
      rt.charge(cost);
      if (--*remaining == 0) {
        rt.after(rt.my_pe(), rt.tree_wave_latency(), [&rt, done, ckpt_begin]() {
          rt.machine().note_phase(sim::PhaseEvent{sim::Phase::kDiskCheckpoint, /*pe=*/0,
                                                  ckpt_begin, rt.now()});
          done.invoke(rt, ReductionResult{});
        });
      }
    });
  }
}

std::size_t restart_from_file(Runtime& rt, const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? static_cast<std::streamoff>(in.tellg()) : -1;
  if (size < 0) throw std::runtime_error("restart_from_file: cannot open " + path);
  std::vector<std::byte> blob(static_cast<std::size_t>(size));
  in.seekg(0).read(reinterpret_cast<char*>(blob.data()),
                   static_cast<std::streamsize>(blob.size()));
  auto bad = [&path](const std::string& what) {
    return std::runtime_error("restart_from_file: " + path + ": " + what);
  };

  // Read and check the whole file before seeding anything.
  pup::Unpacker u(blob);
  std::vector<ElementImage> images;
  try {
    std::uint64_t magic = 0;
    u | magic;
    if (magic != kMagic) throw bad("bad checkpoint magic");
    std::uint64_t n = 0;
    u | n;
    for (std::uint64_t i = 0; i < n; ++i) u | images.emplace_back();
  } catch (const std::out_of_range& e) {
    throw bad(std::string("truncated: ") + e.what());
  }
  if (u.remaining() != 0)
    throw bad(std::to_string(u.remaining()) + " trailing bytes after the last record");
  for (const ElementImage& img : images)
    if (img.col < 0 || static_cast<std::size_t>(img.col) >= rt.collection_count())
      throw bad("unknown collection id " + std::to_string(img.col));

  for (const ElementImage& img : images) {
    const ChareTypeId type = rt.collection(img.col).type;
    rt.seed_element(img.col, img.idx, Registry::instance().unpack_element(type, img.bytes),
                    rt.home_pe(img.idx));
  }
  return images.size();
}

}  // namespace charm::ft
