// EncryptedOArray<T>: an OArray whose cells are stored encrypted under the
// probabilistic scheme of crypto/prob_cipher.h — the full §3.1 model made
// concrete.
//
// Every Write re-encrypts under a fresh nonce, so the adversary observing
// ciphertexts cannot tell whether a compare-exchange swapped its operands
// (§3.5's requirement).  Reads authenticate; a forged or corrupted cell
// aborts.  The trace sink sees the same <R|W, array, index> events as for a
// plain OArray — encryption changes what the adversary learns from cell
// *contents*, not the access-pattern story.
//
// This wrapper is a demonstration/integration vehicle (used by tests and
// the crypto example); the algorithms themselves stay on OArray<T> so the
// fast path carries no cipher cost.
//
// Failure model: Read (legacy) aborts on a MAC failure when no recovery
// scope is active, and raises kIntegrityViolation through the recovery unwind
// otherwise; TryRead returns the StatusOr directly.  Both paths first run a
// bounded retry loop (kMacRetryLimit) with a re-derived fault-injector
// stream per attempt, so an *injected transient* fault (site "decrypt_mac",
// common/fault.h) clears on retry while a genuinely forged cell keeps
// failing deterministically.  The trace event is recorded once per logical
// read — retries re-touch the same already-fetched cell, so the
// adversary-visible access sequence is identical with and without faults.

#ifndef OBLIVDB_MEMTRACE_ENCRYPTED_OARRAY_H_
#define OBLIVDB_MEMTRACE_ENCRYPTED_OARRAY_H_

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/fault.h"
#include "common/status.h"
#include "crypto/prob_cipher.h"
#include "memtrace/trace.h"

namespace oblivdb::memtrace {

template <typename T>
class EncryptedOArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  EncryptedOArray(size_t length, uint64_t key, std::string name = "enc")
      : cells_(length),
        cipher_(key),
        name_(std::move(name)),
        array_id_(RegisterArray(name_, length, sizeof(T))) {
    // Cells start as encryptions of the zero value, mirroring OArray's
    // zero-initialization.
    const T zero{};
    for (auto& cell : cells_) cell = cipher_.Encrypt(&zero, sizeof(T));
  }

  size_t size() const { return cells_.size(); }
  uint32_t array_id() const { return array_id_; }

  // Extra decryption attempts after the first failed one (so a cell is
  // tried at most 1 + kMacRetryLimit times before the fault surfaces).
  static constexpr int kMacRetryLimit = 3;

  T Read(size_t i) const {
    OBLIVDB_CHECK_LT(i, cells_.size());
    Record(AccessKind::kRead, i);
    T value;
    Status status = DecryptCell(i, &value);
    if (!status.ok()) RaiseOrAbort(std::move(status), __FILE__, __LINE__);
    return value;
  }

  // Fallible read: kIntegrityViolation instead of abort/unwind when the
  // cell stays unauthentic through the retry budget.
  StatusOr<T> TryRead(size_t i) const {
    OBLIVDB_CHECK_LT(i, cells_.size());
    Record(AccessKind::kRead, i);
    T value;
    Status status = DecryptCell(i, &value);
    if (!status.ok()) return StatusOr<T>(std::move(status));
    return StatusOr<T>(value);
  }

  void Write(size_t i, const T& value) {
    OBLIVDB_CHECK_LT(i, cells_.size());
    Record(AccessKind::kWrite, i);
    cells_[i] = cipher_.Encrypt(&value, sizeof(T));
  }

  // The adversary's view of a cell (for tests asserting re-encryption).
  const crypto::Ciphertext& CiphertextAt(size_t i) const {
    OBLIVDB_CHECK_LT(i, cells_.size());
    return cells_[i];
  }

  // Tamper hook for failure-injection tests.
  crypto::Ciphertext& MutableCiphertextAt(size_t i) {
    OBLIVDB_CHECK_LT(i, cells_.size());
    return cells_[i];
  }

 private:
  // One authenticated fetch with the bounded retry loop.  Each attempt is a
  // fresh fault-injector arrival — the "re-derived seed" of a transient
  // fault — so an injected failure clears on a later attempt while a real
  // forgery (Decrypt itself false) fails every attempt.
  Status DecryptCell(size_t i, T* out) const {
    FaultInjector& injector = FaultInjector::Global();
    for (int attempt = 0; attempt <= kMacRetryLimit; ++attempt) {
      const bool injected = injector.ShouldFire(FaultSite::kDecryptMac);
      if (cipher_.Decrypt(cells_[i], out) && !injected) return Status::Ok();
      if (attempt < kMacRetryLimit) injector.RecordRetry();
    }
    return Status(StatusCode::kIntegrityViolation,
                  "MAC verification failed for cell " + std::to_string(i) +
                      " of array '" + name_ + "'");
  }

  void Record(AccessKind kind, size_t i) const {
    TraceSink* sink = GetTraceSink();
    if (sink != nullptr) {
      sink->OnAccess(AccessEvent{kind, array_id_, i,
                                 static_cast<uint32_t>(sizeof(T))});
    }
  }

  std::vector<crypto::Ciphertext> cells_;
  mutable crypto::ProbCipher cipher_;
  std::string name_;
  uint32_t array_id_;
};

}  // namespace oblivdb::memtrace

#endif  // OBLIVDB_MEMTRACE_ENCRYPTED_OARRAY_H_
