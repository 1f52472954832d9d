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

struct ElementRecord {
  CollectionId col = -1;
  ObjIndex idx{};
  std::vector<std::byte> bytes;
  void pup(pup::Er& p) {
    p | col;
    p | idx;
    p | bytes;
  }
};

}  // namespace

void checkpoint_to_file(Runtime& rt, const std::string& path, Callback done) {
  // Host-side serialization (contents), with per-PE costs charged in virtual
  // time for the pack and the parallel file write.
  std::vector<ElementRecord> records;
  std::vector<double> pe_bytes(static_cast<std::size_t>(rt.npes()), 0.0);

  for (std::size_t ci = 0; ci < rt.collection_count(); ++ci) {
    Collection& c = rt.collection(static_cast<CollectionId>(ci));
    if (!c.checkpointable) continue;
    c.pe.for_each_touched([&](std::size_t pe, PeLocal& pl) {
      for (auto& [ix, obj] : pl.elems) {
        ElementRecord rec;
        rec.col = c.id;
        rec.idx = ix;
        pup::Packer pk(rec.bytes);
        obj->pup(pk);
        pe_bytes[pe] += static_cast<double>(rec.bytes.size());
        records.push_back(std::move(rec));
      }
    });
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("checkpoint_to_file: cannot open " + path);
  std::vector<std::byte> blob;
  {
    pup::Packer pk(blob);
    std::uint64_t magic = kMagic;
    pk | magic;
    std::uint64_t n = records.size();
    pk | n;
    for (auto& r : records) pk | r;
  }
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
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("restart_from_file: cannot open " + path);
  std::vector<char> raw{std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()};
  std::vector<std::byte> blob(raw.size());
  std::memcpy(blob.data(), raw.data(), raw.size());
  pup::Unpacker u(blob);
  std::uint64_t magic = 0;
  u | magic;
  if (magic != kMagic) throw std::runtime_error("restart_from_file: bad checkpoint magic");
  std::uint64_t n = 0;
  u | n;

  std::size_t restored = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    ElementRecord rec;
    u | rec;
    const ChareTypeId type = rt.collection(rec.col).type;
    rt.seed_element(rec.col, rec.idx, Registry::instance().unpack_element(type, rec.bytes),
                    rt.home_pe(rec.idx));
    ++restored;
  }
  return restored;
}

}  // namespace charm::ft
