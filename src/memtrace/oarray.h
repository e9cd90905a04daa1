// OArray<T>: the only route from the algorithms to public memory.
//
// Mirrors the paper's access discipline (§4.3):
//
//     e ?<- T[i]      -> e = arr.Read(i)
//     T[i] ?<- e      -> arr.Write(i, e)
//
// Reads and writes move whole elements between public memory and the
// constant-size local working set; every access is reported to the installed
// TraceSink.  T must be trivially copyable (entries are flat PODs so that
// oblivious swaps are word blends).
//
// Three access granularities:
//   * Read/Write          — one element, one event (the paper's model);
//   * ReadSpan/WriteSpan  — a contiguous run with one bounds check and one
//                           sink test, emitting the same per-element events
//                           an element-wise loop would;
//   * ScopedRegion        — pins a window for a cache-resident kernel: the
//                           window is staged into caller-provided local
//                           storage, the kernel emits its per-element events
//                           through the region's cached sink, and the block
//                           is written back on scope exit.

#ifndef OBLIVDB_MEMTRACE_OARRAY_H_
#define OBLIVDB_MEMTRACE_OARRAY_H_

#include <algorithm>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/status.h"
#include "memtrace/trace.h"

namespace oblivdb::memtrace {

// No-op stand-in for an event emitter in untraced kernel instantiations:
// the kernels' kTraced = false branches compile the emitter calls away, but
// a concrete pointee type is still needed for template deduction.  Shared
// by the sort, routing, and permutation kernels.
struct NullEventEmitter {
  void EmitRead(size_t) {}
  void EmitWrite(size_t) {}
};

// Convenience for the untraced call sites.
inline constexpr NullEventEmitter* kNoEmitter = nullptr;

template <typename T>
class OArray {
  static_assert(std::is_trivially_copyable_v<T>,
                "OArray elements move through local memory by value");

 public:
  // array_id() of a moved-from (or otherwise defunct) array.  Real ids are
  // allocated sequentially from zero, so the sentinel can never collide.
  static constexpr uint32_t kInvalidArrayId = ~uint32_t{0};

  // Allocates `length` zero-initialized elements.  `name` labels the array
  // in traces and visualizations.
  explicit OArray(size_t length, std::string name = "arr")
      : data_(length),
        name_(std::move(name)),
        array_id_(RegisterArray(name_, length, sizeof(T))) {
    // Fault-injection site "alloc": models public-memory exhaustion at the
    // one place the algorithms acquire it.  Under core::RunRecoverable the
    // fault unwinds as kResourceExhausted; other callers abort.  Array
    // shapes are public, so the probe leaks nothing.
    if (FaultInjector::Global().ShouldFire(FaultSite::kAlloc)) {
      RaiseOrAbort(Status(StatusCode::kResourceExhausted,
                          "injected allocation failure for array '" + name_ +
                              "'"),
                   __FILE__, __LINE__);
    }
  }

  OArray(const OArray&) = delete;
  OArray& operator=(const OArray&) = delete;

  // Moves transfer the registered identity: the moved-from array is left
  // empty with kInvalidArrayId so it can no longer emit events that would be
  // attributed to the id the destination now owns (functions like
  // ExpandTable return OArrays by value, so this path is on the main
  // pipeline).
  OArray(OArray&& other) noexcept
      : data_(std::move(other.data_)),
        name_(std::move(other.name_)),
        array_id_(other.array_id_) {
    other.data_.clear();
    other.name_.clear();
    other.array_id_ = kInvalidArrayId;
  }

  OArray& operator=(OArray&& other) noexcept {
    if (this != &other) {
      // This array's old registration is abandoned (the registry is
      // append-only within a trace scope; ids are never reused).
      data_ = std::move(other.data_);
      name_ = std::move(other.name_);
      array_id_ = other.array_id_;
      other.data_.clear();
      other.name_.clear();
      other.array_id_ = kInvalidArrayId;
    }
    return *this;
  }

  size_t size() const { return data_.size(); }
  uint32_t array_id() const { return array_id_; }
  const std::string& name() const { return name_; }

  // False once this array has been moved from.
  bool valid() const { return array_id_ != kInvalidArrayId; }

  // Reads element i into local memory (emits <R, id, i>).
  T Read(size_t i) const {
    OBLIVDB_CHECK_LT(i, data_.size());
    Record(AccessKind::kRead, i);
    return data_[i];
  }

  // Writes element i from local memory (emits <W, id, i>).
  void Write(size_t i, const T& value) {
    OBLIVDB_CHECK_LT(i, data_.size());
    Record(AccessKind::kWrite, i);
    data_[i] = value;
  }

  // Reads [lo, lo+len) into `out` with one bounds check and one sink test,
  // emitting <R, id, lo> ... <R, id, lo+len-1> — the exact events an
  // element-wise Read loop would emit, from one call.
  void ReadSpan(size_t lo, size_t len, T* out) const {
    OBLIVDB_CHECK_LE(len, data_.size());
    OBLIVDB_CHECK_LE(lo, data_.size() - len);
    TraceSink* sink = GetTraceSink();
    if (sink != nullptr) {
      for (size_t k = 0; k < len; ++k) {
        sink->OnAccess(AccessEvent{AccessKind::kRead, array_id_, lo + k,
                                   static_cast<uint32_t>(sizeof(T))});
      }
    }
    std::memcpy(out, data_.data() + lo, len * sizeof(T));
  }

  // Writes [lo, lo+len) from `src`; the mirror image of ReadSpan.
  void WriteSpan(size_t lo, size_t len, const T* src) {
    OBLIVDB_CHECK_LE(len, data_.size());
    OBLIVDB_CHECK_LE(lo, data_.size() - len);
    TraceSink* sink = GetTraceSink();
    if (sink != nullptr) {
      for (size_t k = 0; k < len; ++k) {
        sink->OnAccess(AccessEvent{AccessKind::kWrite, array_id_, lo + k,
                                   static_cast<uint32_t>(sizeof(T))});
      }
    }
    std::memcpy(data_.data() + lo, src, len * sizeof(T));
  }

  // Pins [lo, lo+len) for a cache-resident kernel.  On entry the window is
  // copied into `block` (caller-provided local storage of at least `len`
  // elements); on scope exit the block is written back.  The kernel runs on
  // block memory and reports the public accesses it logically performs via
  // EmitRead/EmitWrite, which resolve the sink test once per region instead
  // of once per access.  The emitted events — not the staging copies — are
  // the adversary-visible story, so the kernel must emit exactly the
  // per-element sequence the element-wise implementation would.
  class ScopedRegion {
   public:
    ScopedRegion(OArray& array, size_t lo, size_t len, T* block)
        : array_(array),
          lo_(lo),
          len_(len),
          block_(block),
          sink_(GetTraceSink()) {
      OBLIVDB_CHECK_LE(len, array.data_.size());
      OBLIVDB_CHECK_LE(lo, array.data_.size() - len);
      std::memcpy(block_, array_.data_.data() + lo_, len_ * sizeof(T));
    }

    ~ScopedRegion() {
      std::memcpy(array_.data_.data() + lo_, block_, len_ * sizeof(T));
    }

    ScopedRegion(const ScopedRegion&) = delete;
    ScopedRegion& operator=(const ScopedRegion&) = delete;

    T* data() { return block_; }
    size_t size() const { return len_; }
    bool traced() const { return sink_ != nullptr; }

    // Emits <R, id, lo+i> for block-relative index i.
    void EmitRead(size_t i) {
      if (sink_ != nullptr) {
        sink_->OnAccess(AccessEvent{AccessKind::kRead, array_.array_id_,
                                    lo_ + i, static_cast<uint32_t>(sizeof(T))});
      }
    }

    // Emits <W, id, lo+i> for block-relative index i.
    void EmitWrite(size_t i) {
      if (sink_ != nullptr) {
        sink_->OnAccess(AccessEvent{AccessKind::kWrite, array_.array_id_,
                                    lo_ + i, static_cast<uint32_t>(sizeof(T))});
      }
    }

   private:
    OArray& array_;
    size_t lo_;
    size_t len_;
    T* block_;
    TraceSink* sink_;
  };

  // Caches the installed sink and this array's identity so a kernel running
  // on raw storage (UntracedData) can report the public accesses it
  // logically performs with one sink test per kernel instead of one per
  // access.  The same contract as ScopedRegion, minus the staging copy:
  // the emitted events are the adversary-visible story, so the kernel must
  // emit exactly the per-element sequence the element-wise implementation
  // would.  Indices are absolute (array-relative).
  class EventEmitter {
   public:
    explicit EventEmitter(const OArray& array)
        : array_id_(array.array_id_), sink_(GetTraceSink()) {}

    bool traced() const { return sink_ != nullptr; }

    // Emits <R, id, i>.
    void EmitRead(size_t i) const {
      if (sink_ != nullptr) {
        sink_->OnAccess(AccessEvent{AccessKind::kRead, array_id_, i,
                                    static_cast<uint32_t>(sizeof(T))});
      }
    }

    // Emits <W, id, i>.
    void EmitWrite(size_t i) const {
      if (sink_ != nullptr) {
        sink_->OnAccess(AccessEvent{AccessKind::kWrite, array_id_, i,
                                    static_cast<uint32_t>(sizeof(T))});
      }
    }

   private:
    uint32_t array_id_;
    TraceSink* sink_;
  };

  // Untraced bulk access.  Only for (a) loading inputs / reading outputs at
  // the trust boundary, (b) non-oblivious baselines, where the point is
  // precisely that their accesses are input-dependent, and (c) kernels that
  // have checked that no sink is installed (nothing observes the trace, so
  // the comparator schedule may run on raw memory) or that report their
  // logical accesses through an EventEmitter.
  T* UntracedData() { return data_.data(); }
  const T* UntracedData() const { return data_.data(); }

 private:
  void Record(AccessKind kind, size_t i) const {
    TraceSink* sink = GetTraceSink();
    if (sink != nullptr) {
      sink->OnAccess(AccessEvent{kind, array_id_, i,
                                 static_cast<uint32_t>(sizeof(T))});
    }
  }

  std::vector<T> data_;
  std::string name_;
  uint32_t array_id_;
};

// Copies src[src_lo, src_lo+len) into dst[dst_lo, ...) through a local
// staging chunk: the per-element <R, src, i> / <W, dst, i> events of an
// element-wise copy loop, at span cost.
template <typename T>
void CopySpan(const OArray<T>& src, size_t src_lo, OArray<T>& dst,
              size_t dst_lo, size_t len) {
  constexpr size_t kChunk = 256;
  T staged[kChunk];
  for (size_t done = 0; done < len;) {
    const size_t c = std::min(kChunk, len - done);
    src.ReadSpan(src_lo + done, c, staged);
    dst.WriteSpan(dst_lo + done, c, staged);
    done += c;
  }
}

}  // namespace oblivdb::memtrace

#endif  // OBLIVDB_MEMTRACE_OARRAY_H_
