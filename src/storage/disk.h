#ifndef RDA_STORAGE_DISK_H_
#define RDA_STORAGE_DISK_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/fault_injector.h"
#include "storage/io_stats.h"
#include "storage/page.h"

namespace rda {

// Simple positional service-time model: every access pays a settle time, a
// seek proportional to the slot distance travelled, and half a rotation —
// except strictly sequential accesses (next slot after the previous one),
// which pay the transfer only. This is what makes the sequentiality
// argument of parity striping (Gray et al., paper Section 3.2) measurable:
// transfer COUNTS are layout-independent, service TIME is not.
struct ServiceTimeModel {
  double min_seek_ms = 0.5;
  double seek_ms_per_slot = 0.01;
  double rotation_ms = 4.2;  // Half a rotation at 7200 rpm.
  double transfer_ms = 0.5;
};

// One simulated disk: a page-granular, randomly addressable device with
// failure injection and transfer accounting.
//
// Failure model: Fail() makes every subsequent read and write return
// kIoError until Replace() installs a fresh (zeroed) medium — this models a
// total media failure of the drive, the failure class the paper's arrays are
// designed to survive (Section 1). Content present before Fail() is lost.
//
// A per-page checksum is maintained on write and verified on read, modelling
// sector ECC: it turns silent corruption of the medium into a kCorruption
// error. Partial (sector-level) faults — transient errors, sticky latent
// sector errors, bit flips, torn writes — come from an attached
// FaultInjector; a detached disk (the default) pays one pointer test per
// access and behaves exactly like the fault-free model.
//
// Thread safety: each disk carries its own mutex held for the duration of
// one access — the hardware analogue of a drive serving one request at a
// time. Accesses to DIFFERENT disks proceed in parallel, which is exactly
// the concurrency the array layouts are designed to expose. `failed_` is
// atomic so health checks (retry policy, degraded-mode tests) need no lock.
class Disk {
 public:
  Disk(DiskId id, SlotId num_slots, size_t page_size);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;
  // Moves exist only so DiskArray can build its vector<Disk> at
  // construction time (single-threaded); the mutex is freshly constructed.
  Disk(Disk&& other) noexcept;
  Disk& operator=(Disk&& other) noexcept;

  // Reads the page at `slot` into `*out`. Counts one page transfer.
  Status Read(SlotId slot, PageImage* out) const;

  // Writes `image` to `slot`. Counts one page transfer. The payload size
  // must equal the disk's page size.
  Status Write(SlotId slot, const PageImage& image);

  // Injects a media failure: all content is lost, I/O fails until Replace().
  void Fail();

  // Installs a fresh medium; the disk becomes usable again. ALL per-medium
  // mutable state is reset: the head parks at slot 0 and any sticky
  // sector-fault state in the attached injector is cleared (new platters
  // have no latent errors). The service clock (busy_ms) and transfer
  // counters deliberately survive — they are accounting aggregates of the
  // drive BAY across media generations, not medium state, and resetting
  // them would silently drop the rebuild's own cost from reports.
  void Replace();

  // Attaches a sector-fault source (null detaches). Non-owning; the caller
  // (usually DiskArray) keeps the injector alive while attached.
  void AttachFaultInjector(FaultInjector* injector) {
    std::lock_guard<std::mutex> lock(mu_);
    injector_ = injector;
  }
  FaultInjector* fault_injector() { return injector_; }

  // Accumulated service time under the positional model.
  double busy_ms() const {
    std::lock_guard<std::mutex> lock(mu_);
    return busy_ms_;
  }
  void ResetServiceClock() {
    std::lock_guard<std::mutex> lock(mu_);
    busy_ms_ = 0;
  }
  // Real (wall-clock) service delay per access, slept while the drive holds
  // its request slot. 0 — the default — keeps accesses instantaneous; the
  // busy-ms accounting model above is unaffected either way. With a nonzero
  // delay, accesses to different disks overlap in real time, which is what
  // makes parallel recovery's I/O overlap measurable on any host.
  void set_real_access_delay_us(uint32_t us) {
    std::lock_guard<std::mutex> lock(mu_);
    real_delay_us_ = us;
  }
  // Charges extra service time (retry backoff) to this disk.
  void AddServiceDelay(double ms) const {
    std::lock_guard<std::mutex> lock(mu_);
    busy_ms_ += ms;
  }

  // Reclassifies `attempts` already-counted transfers of this disk as
  // retries: a retried access is ONE logical page transfer plus N retry
  // attempts, not N+1 transfers (the per-txn attribution and the BENCH_perf
  // transfer columns count logical work). Called by the array's retry loop
  // once the final outcome of an access is known.
  void ReclassifyRetries(uint64_t attempts, bool is_read) const;

  bool failed() const { return failed_.load(std::memory_order_acquire); }
  DiskId id() const { return id_; }
  SlotId num_slots() const { return static_cast<SlotId>(pages_.size()); }
  size_t page_size() const { return page_size_; }
  IoCounters counters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counters_;
  }
  void ResetCounters() {
    std::lock_guard<std::mutex> lock(mu_);
    counters_ = IoCounters();
  }

 private:
  uint32_t ChecksumOf(const PageImage& image) const;
  void AccountAccess(SlotId slot) const;
  // Validation + accounting of a write.
  Status CheckWrite(SlotId slot, const PageImage& image);
  // Consults the injector about this read; applies bit flips to the stored
  // page. Returns non-Ok for transient / latent faults.
  Status ApplyReadFaults(SlotId slot) const;
  // Consults the injector about this write. `handled` is set when the
  // fault consumed the write (transient: nothing stored; torn: a mixed
  // image was stored and success must be reported).
  Status ApplyWriteFaults(SlotId slot, const PageImage& image, bool* handled);

  DiskId id_;
  size_t page_size_;
  std::atomic<bool> failed_{false};
  // Serializes one access at a time (media, checksums, counters, head
  // position, injector decisions). Leaf lock: nothing is acquired under it.
  mutable std::mutex mu_;
  std::vector<PageImage> pages_;
  std::vector<uint32_t> checksums_;
  FaultInjector* injector_ = nullptr;
  mutable IoCounters counters_;
  ServiceTimeModel model_;
  mutable double busy_ms_ = 0;
  mutable SlotId head_slot_ = 0;  // Current head position.
  uint32_t real_delay_us_ = 0;    // Wall-clock sleep per access (0 = none).
};

}  // namespace rda

#endif  // RDA_STORAGE_DISK_H_
