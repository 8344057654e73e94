#include "ftl/checkpoint.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/logging.h"
#include "ftl/mapping.h"

namespace noftl::ftl {

using flash::BlockId;
using flash::DieId;
using flash::OpOrigin;
using flash::PageId;
using flash::PhysAddr;

namespace {

constexpr uint64_t kMagic = 0x4E46544C434B5054ull;  // "NFTLCKPT"
/// On-flash layout version; a slot with any other format fails validation
/// like a torn one.
constexpr uint32_t kFormat = 2;
/// OOB object id stamped on checkpoint pages (their logical_id stays kUnset,
/// so the data-recovery scan already ignores them; the object id makes them
/// identifiable in dumps).
constexpr uint32_t kCheckpointObjectId = 0xCCu;
/// Fixed header: magic, format+crc, epoch, device_seq, logical_pages,
/// die_count, committed_batches, next_batch_id, total_bytes, kind,
/// base_epoch.
constexpr uint64_t kHeaderBytes = 84;
constexpr uint64_t kCrcOffset = 12;
constexpr uint64_t kCrcCoveredFrom = 16;
constexpr uint64_t kTotalBytesOffset = 64;

uint32_t Crc32(const uint8_t* data, size_t len) {
  static uint32_t table[256];
  static bool init = false;
  if (!init) {
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = i;
      for (int k = 0; k < 8; k++) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    init = true;
  }
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; i++) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Little-endian byte-stream writer/reader over a std::vector<uint8_t>.
struct Writer {
  std::vector<uint8_t>& buf;
  void U32(uint32_t v) {
    for (int i = 0; i < 4; i++) buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; i++) buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
};

struct Reader {
  const std::vector<uint8_t>& buf;
  size_t pos = 0;
  bool fail = false;
  uint32_t U32() {
    if (pos + 4 > buf.size()) {
      fail = true;
      return 0;
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; i++) v |= static_cast<uint32_t>(buf[pos + i]) << (8 * i);
    pos += 4;
    return v;
  }
  uint64_t U64() {
    if (pos + 8 > buf.size()) {
      fail = true;
      return 0;
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; i++) v |= static_cast<uint64_t>(buf[pos + i]) << (8 * i);
    pos += 8;
    return v;
  }
};

std::vector<uint8_t> Serialize(const CheckpointImage& img) {
  std::vector<uint8_t> buf;
  buf.reserve(kHeaderBytes + img.dies.size() * 4 +
              img.l2p.size() * 8 + img.versions.size() * 8 + 64);
  Writer w{buf};
  w.U64(kMagic);
  w.U32(kFormat);
  w.U32(0);  // crc, patched below
  w.U64(img.epoch);
  w.U64(img.device_seq);
  w.U64(img.logical_pages);
  w.U64(img.dies.size());
  w.U64(img.committed_batches);
  w.U64(img.next_batch_id);
  w.U64(0);  // total_bytes, patched below
  w.U32(img.kind);
  w.U64(img.base_epoch);
  for (DieId d : img.dies) w.U32(d);
  if (img.kind == CheckpointImage::kIncremental) {
    w.U64(img.dirty.size());
    for (const auto& e : img.dirty) {
      w.U64(e.lpn);
      w.U64(e.packed_addr);
      w.U64(e.version);
    }
  } else {
    for (uint64_t v : img.l2p) w.U64(v);
    for (uint64_t v : img.versions) w.U64(v);
  }
  w.U64(img.version_overrides.size());
  for (const auto& [lpn, version] : img.version_overrides) {
    w.U64(lpn);
    w.U64(version);
  }
  w.U64(img.pending_scrubs.size());
  for (const auto& s : img.pending_scrubs) {
    w.U32(s.die);
    w.U32(s.block);
    w.U64(s.batch_id);
  }
  const uint64_t total = buf.size();
  for (int i = 0; i < 8; i++) {
    buf[kTotalBytesOffset + i] = static_cast<uint8_t>(total >> (8 * i));
  }
  const uint32_t crc = Crc32(buf.data() + kCrcCoveredFrom,
                             buf.size() - kCrcCoveredFrom);
  for (int i = 0; i < 4; i++) {
    buf[kCrcOffset + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  return buf;
}

Result<CheckpointImage> Deserialize(const std::vector<uint8_t>& buf) {
  Reader r{buf};
  CheckpointImage img;
  if (r.U64() != kMagic) return Status::Corruption("checkpoint magic mismatch");
  if (r.U32() != kFormat) return Status::Corruption("checkpoint format mismatch");
  const uint32_t crc = r.U32();
  img.epoch = r.U64();
  img.device_seq = r.U64();
  img.logical_pages = r.U64();
  const uint64_t die_count = r.U64();
  img.committed_batches = r.U64();
  img.next_batch_id = r.U64();
  const uint64_t total_bytes = r.U64();
  img.kind = r.U32();
  img.base_epoch = r.U64();
  if (r.fail || total_bytes < kHeaderBytes || total_bytes > buf.size() ||
      img.kind > CheckpointImage::kIncremental ||
      (img.kind == CheckpointImage::kIncremental && img.base_epoch == 0)) {
    return Status::Corruption("checkpoint header implausible");
  }
  if (Crc32(buf.data() + kCrcCoveredFrom, total_bytes - kCrcCoveredFrom) !=
      crc) {
    return Status::Corruption("checkpoint CRC mismatch (torn write)");
  }
  img.dies.resize(die_count);
  for (auto& d : img.dies) d = r.U32();
  if (img.kind == CheckpointImage::kIncremental) {
    const uint64_t dirty_count = r.U64();
    if (r.fail || dirty_count > img.logical_pages) {
      return Status::Corruption("checkpoint body truncated");
    }
    img.dirty.resize(dirty_count);
    for (auto& e : img.dirty) {
      e.lpn = r.U64();
      e.packed_addr = r.U64();
      e.version = r.U64();
    }
  } else {
    img.l2p.resize(img.logical_pages);
    for (auto& v : img.l2p) v = r.U64();
    img.versions.resize(img.logical_pages);
    for (auto& v : img.versions) v = r.U64();
  }
  const uint64_t overrides = r.U64();
  if (r.fail || overrides > img.logical_pages) {
    return Status::Corruption("checkpoint body truncated");
  }
  img.version_overrides.resize(overrides);
  for (auto& [lpn, version] : img.version_overrides) {
    lpn = r.U64();
    version = r.U64();
  }
  const uint64_t scrubs = r.U64();
  if (r.fail || scrubs > total_bytes) {
    return Status::Corruption("checkpoint body truncated");
  }
  img.pending_scrubs.resize(scrubs);
  for (auto& s : img.pending_scrubs) {
    s.die = r.U32();
    s.block = r.U32();
    s.batch_id = r.U64();
  }
  if (r.fail || r.pos != total_bytes) {
    return Status::Corruption("checkpoint body truncated");
  }
  return img;
}

}  // namespace

uint32_t CheckpointStore::BlocksPerSlot(const flash::FlashGeometry& geo) {
  // 16 bytes per logical page (packed address + version), with logical
  // pages bounded by this die's physical pages; +1 block absorbs the
  // header, die list, overrides, scrubs and striping slack.
  const uint64_t per_die_payload = 16 * geo.pages_per_die();
  const uint64_t block_bytes =
      static_cast<uint64_t>(geo.pages_per_block) * geo.page_size;
  return static_cast<uint32_t>((per_die_payload + block_bytes - 1) /
                               block_bytes) +
         1;
}

uint32_t CheckpointStore::ReservedBlocksPerDie(const flash::FlashGeometry& geo,
                                               uint32_t slots) {
  return slots == 0 ? 0 : slots * BlocksPerSlot(geo);
}

CheckpointStore::CheckpointStore(flash::FlashDevice* device,
                                 std::vector<DieId> dies, uint32_t slots)
    : device_(device),
      dies_(std::move(dies)),
      slots_(slots),
      blocks_per_slot_(BlocksPerSlot(device->geometry())) {
  assert(slots_ >= 1);
  assert(!dies_.empty());
}

PhysAddr CheckpointStore::PageAddr(uint32_t slot, uint64_t index) const {
  const auto& geo = device_->geometry();
  const uint64_t die_idx = index % dies_.size();
  const uint64_t j = index / dies_.size();
  const BlockId base =
      geo.blocks_per_die - reserved_blocks_per_die() + slot * blocks_per_slot_;
  return {dies_[die_idx],
          base + static_cast<BlockId>(j / geo.pages_per_block),
          static_cast<PageId>(j % geo.pages_per_block)};
}

uint64_t CheckpointStore::SlotCapacityBytes() const {
  const auto& geo = device_->geometry();
  return static_cast<uint64_t>(dies_.size()) * blocks_per_slot_ *
         geo.pages_per_block * geo.page_size;
}

Status CheckpointStore::Write(const CheckpointImage& image, SimTime issue,
                              SimTime* complete, uint64_t max_pages,
                              uint64_t* bytes_written) {
  const auto& geo = device_->geometry();
  if (geo.page_size < kHeaderBytes) {
    return Status::InvalidArgument("page too small for checkpoint header");
  }
  std::vector<uint8_t> buf = Serialize(image);
  if (buf.size() > SlotCapacityBytes()) {
    return Status::NoSpace("checkpoint image exceeds slot capacity");
  }
  buf.resize((buf.size() + geo.page_size - 1) / geo.page_size * geo.page_size,
             0);
  if (bytes_written != nullptr) *bytes_written = buf.size();
  const uint64_t chunks = buf.size() / geo.page_size;
  const uint32_t slot = static_cast<uint32_t>(image.epoch % slots_);
  SimTime done = issue;

  // Erase the slot (the previous occupant is `slots_` epochs old); the
  // erases land on distinct dies and overlap.
  const BlockId base =
      geo.blocks_per_die - reserved_blocks_per_die() + slot * blocks_per_slot_;
  for (DieId die : dies_) {
    for (uint32_t b = 0; b < blocks_per_slot_; b++) {
      if (device_->NextProgramPage(die, base + b) == 0) continue;
      flash::OpResult er =
          device_->EraseBlock(die, base + b, issue, OpOrigin::kMeta);
      if (!er.ok()) return er.status;
      done = std::max(done, er.complete);
    }
  }

  flash::PageMetadata meta;  // logical_id stays kUnset: invisible to scans
  meta.version = image.epoch;
  meta.object_id = kCheckpointObjectId;
  for (uint64_t i = 0; i < chunks; i++) {
    if (i >= max_pages) break;  // test hook: simulated crash mid-checkpoint
    flash::OpResult pr = device_->ProgramPage(
        PageAddr(slot, i), issue, OpOrigin::kMeta,
        reinterpret_cast<const char*>(buf.data()) + i * geo.page_size, meta);
    if (!pr.ok()) return pr.status;
    done = std::max(done, pr.complete);
  }
  if (complete != nullptr) *complete = done;
  return Status::OK();
}

CheckpointStore::SlotHeader CheckpointStore::ReadHeader(uint32_t slot,
                                                        SimTime issue,
                                                        SimTime* done) {
  const auto& geo = device_->geometry();
  SlotHeader h;
  if (geo.page_size < kHeaderBytes) return h;  // page cannot hold a header
  const PhysAddr addr = PageAddr(slot, 0);
  if (device_->GetPageState(addr) != flash::PageState::kProgrammed) return h;
  h.page0.resize(geo.page_size);
  flash::OpResult r = device_->ReadPage(
      addr, issue, OpOrigin::kMeta,
      reinterpret_cast<char*>(h.page0.data()), nullptr);
  if (!r.ok()) return h;
  *done = std::max(*done, r.complete);
  // Same layout, same parser as Deserialize — only the prefix is needed.
  Reader rd{h.page0};
  const uint64_t magic = rd.U64();
  const uint32_t format = rd.U32();
  rd.U32();  // crc: verified by Deserialize over the full payload
  h.epoch = rd.U64();
  rd.pos = kTotalBytesOffset;
  h.total_bytes = rd.U64();
  h.plausible = !rd.fail && magic == kMagic && format == kFormat &&
                h.epoch > 0 && h.total_bytes >= kHeaderBytes &&
                h.total_bytes <= SlotCapacityBytes();
  return h;
}

uint64_t CheckpointStore::NewestEpochHint(SimTime issue, SimTime* complete) {
  SimTime done = issue;
  uint64_t hint = 0;
  for (uint32_t s = 0; s < slots_; s++) {
    const SlotHeader h = ReadHeader(s, issue, &done);
    if (h.plausible) hint = std::max(hint, h.epoch);
  }
  if (complete != nullptr) *complete = std::max(*complete, done);
  return hint;
}

Result<CheckpointImage> CheckpointStore::LoadSlot(uint32_t slot,
                                                  const SlotHeader& h,
                                                  SimTime issue,
                                                  SimTime* done) {
  const auto& geo = device_->geometry();
  const uint64_t chunks = (h.total_bytes + geo.page_size - 1) / geo.page_size;
  std::vector<uint8_t> buf(chunks * geo.page_size);
  // Chunk 0 is the header page already read by ReadHeader; only the rest of
  // the payload is fetched from flash.
  std::copy(h.page0.begin(), h.page0.end(), buf.begin());
  for (uint64_t i = 1; i < chunks; i++) {
    const PhysAddr addr = PageAddr(slot, i);
    if (device_->GetPageState(addr) != flash::PageState::kProgrammed) {
      // Crash hit mid-checkpoint: pages missing.
      return Status::Corruption("checkpoint payload torn");
    }
    // All chunk reads are issued at `issue`: the device queues them per
    // die/channel, so the striped payload loads at full parallelism.
    flash::OpResult r = device_->ReadPage(
        addr, issue, OpOrigin::kMeta,
        reinterpret_cast<char*>(buf.data()) + i * geo.page_size, nullptr);
    if (!r.ok()) return r.status;
    *done = std::max(*done, r.complete);
  }
  buf.resize(h.total_bytes);
  return Deserialize(buf);
}

Result<CheckpointImage> CheckpointStore::LoadNewest(SimTime issue,
                                                    SimTime* complete,
                                                    uint64_t* epoch_hint) {
  SimTime done = issue;
  std::vector<std::pair<uint32_t, SlotHeader>> candidates;  // (slot, header)
  uint64_t hint = 0;
  for (uint32_t s = 0; s < slots_; s++) {
    SlotHeader h = ReadHeader(s, issue, &done);
    if (!h.plausible) continue;
    hint = std::max(hint, h.epoch);
    candidates.push_back({s, std::move(h)});
  }
  if (epoch_hint != nullptr) *epoch_hint = hint;
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a.second.epoch > b.second.epoch;
            });

  for (const auto& [slot, h] : candidates) {
    auto img = LoadSlot(slot, h, issue, &done);
    if (!img.ok()) continue;  // torn/CRC/parse failure: discard the slot
    if (img->kind == CheckpointImage::kIncremental) {
      // Delta: its base full image must still be intact in its own slot.
      // Any base problem disqualifies this candidate (not the whole load) —
      // an older self-contained slot may still validate below.
      const uint32_t base_slot =
          static_cast<uint32_t>(img->base_epoch % slots_);
      if (base_slot == slot) continue;  // self-referential: never valid
      const SlotHeader bh = ReadHeader(base_slot, issue, &done);
      if (!bh.plausible || bh.epoch != img->base_epoch) continue;
      auto base = LoadSlot(base_slot, bh, issue, &done);
      if (!base.ok() || base->kind != CheckpointImage::kFull ||
          base->epoch != img->base_epoch ||
          base->logical_pages != img->logical_pages ||
          base->dies != img->dies) {
        continue;
      }
      // Overlay: dirty entries replace the base's mapping + version; the
      // delta's overrides cover exactly its dirty lpns, so base overrides
      // for those lpns are superseded and the rest carry over.
      CheckpointImage merged = std::move(*base);
      merged.epoch = img->epoch;
      merged.device_seq = img->device_seq;
      merged.committed_batches = img->committed_batches;
      merged.next_batch_id = img->next_batch_id;
      merged.pending_scrubs = std::move(img->pending_scrubs);
      bool bad = false;
      std::vector<bool> is_dirty(merged.logical_pages, false);
      for (const auto& e : img->dirty) {
        if (e.lpn >= merged.logical_pages) {
          bad = true;
          break;
        }
        merged.l2p[e.lpn] = e.packed_addr;
        merged.versions[e.lpn] = e.version;
        is_dirty[e.lpn] = true;
      }
      if (bad) continue;
      std::erase_if(merged.version_overrides, [&](const auto& ov) {
        return ov.first < merged.logical_pages && is_dirty[ov.first];
      });
      for (const auto& ov : img->version_overrides) {
        merged.version_overrides.push_back(ov);
      }
      if (complete != nullptr) *complete = std::max(*complete, done);
      return merged;
    }
    if (complete != nullptr) *complete = std::max(*complete, done);
    return img;
  }
  if (complete != nullptr) *complete = std::max(*complete, done);
  return Status::NotFound("no valid checkpoint on device");
}

void CheckpointBestEffort(OutOfPlaceMapper& mapper, const char* what,
                          SimTime issue, SimTime* latest) {
  SimTime done = issue;
  Status s = mapper.WriteCheckpoint(issue, &done);
  if (!s.ok()) {
    NOFTL_LOG_WARN("%s mapper checkpoint failed: %s", what,
                   s.ToString().c_str());
    return;
  }
  if (latest != nullptr) *latest = std::max(*latest, done);
}

}  // namespace noftl::ftl
