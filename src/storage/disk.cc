#include "storage/disk.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/crc32.h"

namespace rda {

Disk::Disk(DiskId id, SlotId num_slots, size_t page_size)
    : id_(id),
      page_size_(page_size),
      pages_(num_slots, PageImage(page_size)),
      checksums_(num_slots, 0) {
  // Checksums of zeroed pages are computed lazily: slot checksum 0 with an
  // all-default image means "never written", which ChecksumOf also yields.
  for (SlotId s = 0; s < num_slots; ++s) {
    checksums_[s] = ChecksumOf(pages_[s]);
  }
}

Disk::Disk(Disk&& other) noexcept
    : id_(other.id_),
      page_size_(other.page_size_),
      failed_(other.failed_.load(std::memory_order_relaxed)),
      pages_(std::move(other.pages_)),
      checksums_(std::move(other.checksums_)),
      injector_(other.injector_),
      counters_(other.counters_),
      model_(other.model_),
      busy_ms_(other.busy_ms_),
      head_slot_(other.head_slot_),
      real_delay_us_(other.real_delay_us_) {}

Disk& Disk::operator=(Disk&& other) noexcept {
  id_ = other.id_;
  page_size_ = other.page_size_;
  failed_.store(other.failed_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
  pages_ = std::move(other.pages_);
  checksums_ = std::move(other.checksums_);
  injector_ = other.injector_;
  counters_ = other.counters_;
  model_ = other.model_;
  busy_ms_ = other.busy_ms_;
  head_slot_ = other.head_slot_;
  real_delay_us_ = other.real_delay_us_;
  return *this;
}

uint32_t Disk::ChecksumOf(const PageImage& image) const {
  uint32_t crc = Crc32c(image.payload.data(), image.payload.size());
  crc = Crc32c(&image.header.txn_id, sizeof(image.header.txn_id), crc);
  crc = Crc32c(&image.header.timestamp, sizeof(image.header.timestamp), crc);
  crc = Crc32c(&image.header.parity_state, sizeof(image.header.parity_state),
               crc);
  crc = Crc32c(&image.header.dirty_page, sizeof(image.header.dirty_page), crc);
  return crc;
}

void Disk::AccountAccess(SlotId slot) const {
  if (slot == head_slot_ + 1) {
    busy_ms_ += model_.transfer_ms;  // Sequential: no seek, no rotation.
  } else {
    const double distance = slot > head_slot_
                                ? static_cast<double>(slot - head_slot_)
                                : static_cast<double>(head_slot_ - slot);
    busy_ms_ += model_.min_seek_ms + model_.seek_ms_per_slot * distance +
                model_.rotation_ms + model_.transfer_ms;
  }
  head_slot_ = slot;
  if (real_delay_us_ > 0) {
    // The mutex stays held: a drive serves one request at a time, so the
    // delay serializes THIS disk while other disks keep serving.
    std::this_thread::sleep_for(std::chrono::microseconds(real_delay_us_));
  }
}

Status Disk::Read(SlotId slot, PageImage* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed()) {
    return Status::IoError("disk " + std::to_string(id_) + " failed");
  }
  if (slot >= pages_.size()) {
    return Status::InvalidArgument("slot " + std::to_string(slot) +
                                   " out of range on disk " +
                                   std::to_string(id_));
  }
  ++counters_.page_reads;
  AccountAccess(slot);
  RDA_RETURN_IF_ERROR(ApplyReadFaults(slot));
  if (ChecksumOf(pages_[slot]) != checksums_[slot]) {
    return Status::Corruption("checksum mismatch at disk " +
                              std::to_string(id_) + " slot " +
                              std::to_string(slot));
  }
  *out = pages_[slot];
  return Status::Ok();
}

Status Disk::Write(SlotId slot, const PageImage& image) {
  std::lock_guard<std::mutex> lock(mu_);
  RDA_RETURN_IF_ERROR(CheckWrite(slot, image));
  bool handled = false;
  RDA_RETURN_IF_ERROR(ApplyWriteFaults(slot, image, &handled));
  if (handled) {
    return Status::Ok();
  }
  // Copy-assignment reuses the stored page's existing buffer; steady-state
  // writes allocate nothing.
  pages_[slot] = image;
  checksums_[slot] = ChecksumOf(pages_[slot]);
  if (injector_ != nullptr) {
    injector_->ClearLatent(slot);  // Rewriting remaps a latent sector.
  }
  return Status::Ok();
}

Status Disk::CheckWrite(SlotId slot, const PageImage& image) {
  if (failed()) {
    return Status::IoError("disk " + std::to_string(id_) + " failed");
  }
  if (slot >= pages_.size()) {
    return Status::InvalidArgument("slot " + std::to_string(slot) +
                                   " out of range on disk " +
                                   std::to_string(id_));
  }
  if (image.payload.size() != page_size_) {
    return Status::InvalidArgument("payload size mismatch on disk " +
                                   std::to_string(id_));
  }
  ++counters_.page_writes;
  AccountAccess(slot);
  return Status::Ok();
}

void Disk::ReclassifyRetries(uint64_t attempts, bool is_read) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (is_read) {
    attempts = std::min(attempts, counters_.page_reads);
    counters_.page_reads -= attempts;
  } else {
    attempts = std::min(attempts, counters_.page_writes);
    counters_.page_writes -= attempts;
  }
  counters_.io_retries += attempts;
}

void Disk::Fail() {
  std::lock_guard<std::mutex> lock(mu_);
  failed_.store(true, std::memory_order_release);
  // Media failure destroys the content; Replace() must not resurrect it.
  for (auto& page : pages_) {
    page = PageImage(page_size_);
  }
  for (SlotId s = 0; s < pages_.size(); ++s) {
    checksums_[s] = ChecksumOf(pages_[s]);
  }
}

Status Disk::ApplyReadFaults(SlotId slot) const {
  if (injector_ == nullptr) {
    return Status::Ok();
  }
  const FaultDecision d = injector_->OnRead(slot, page_size_);
  switch (d.kind) {
    case FaultKind::kNone:
      return Status::Ok();
    case FaultKind::kTransientRead:
      return Status::IoError("transient read fault at disk " +
                             std::to_string(id_) + " slot " +
                             std::to_string(slot));
    case FaultKind::kLatentSector:
      return Status::IoError("latent sector error at disk " +
                             std::to_string(id_) + " slot " +
                             std::to_string(slot));
    case FaultKind::kBitFlip: {
      // Bit rot physically mutates the medium even during a read; the page
      // store is device state, const only in the caller's view. The flip is
      // silent here — the checksum verify right after this call reports it.
      PageImage& page = const_cast<Disk*>(this)->pages_[slot];
      if (d.offset < page.payload.size()) {
        page.payload[d.offset] ^= d.mask;
      } else {
        page.header.timestamp ^= d.mask;  // Out-of-band header corruption.
      }
      return Status::Ok();
    }
    default:
      return Status::Ok();
  }
}

Status Disk::ApplyWriteFaults(SlotId slot, const PageImage& image,
                              bool* handled) {
  *handled = false;
  if (injector_ == nullptr) {
    return Status::Ok();
  }
  const FaultDecision d = injector_->OnWrite(slot, page_size_);
  switch (d.kind) {
    case FaultKind::kTransientWrite:
      // Nothing reached the medium; the slot — including any latent error
      // on it — is untouched.
      return Status::IoError("transient write fault at disk " +
                             std::to_string(id_) + " slot " +
                             std::to_string(slot));
    case FaultKind::kTornWrite: {
      // The head tore the sector: the first `offset` payload bytes keep the
      // OLD image, the rest and the header carry the new one. ECC was
      // computed for the intended image, so the next read of this slot
      // reports kCorruption — the write itself "succeeds".
      PageImage& stored = pages_[slot];
      const size_t split = std::min(d.offset, image.payload.size());
      std::copy(image.payload.begin() + static_cast<ptrdiff_t>(split),
                image.payload.end(),
                stored.payload.begin() + static_cast<ptrdiff_t>(split));
      stored.header = image.header;
      checksums_[slot] = ChecksumOf(image);
      injector_->ClearLatent(slot);  // The slot WAS physically rewritten.
      *handled = true;
      return Status::Ok();
    }
    default:
      return Status::Ok();
  }
}

void Disk::Replace() {
  std::lock_guard<std::mutex> lock(mu_);
  failed_.store(false, std::memory_order_release);
  head_slot_ = 0;  // A fresh drive parks its head at the outer track.
  if (injector_ != nullptr) {
    injector_->OnReplace();  // New platters carry no latent errors.
  }
}

}  // namespace rda
