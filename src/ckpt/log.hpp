// Host-side log-structured checkpoint store (ParaLog / iFast lineage).
//
// The durable unit is a LogImage: an append-ordered sequence of segments,
// each a run of fixed-header records protected by per-record and per-segment
// FNV-1a checksums.  Writers append data records and, once an epoch's dump
// is complete on every node, one commit record carrying the digest of that
// epoch's data records.  Because the image is append-only, crash
// recovery is a single forward replay: records verify until the first
// corruption or the end of the image, and everything after the last valid
// commit record — a torn tail mid-epoch — is discarded.
//
// The simulator does not move real payload bytes, so a record's "contents"
// are its descriptor (epoch, node, offset, length); the checksums and epoch
// digests are computed over exactly those fields.  An epoch digest folds its
// records commutatively (digest_fold), so two runs that append the same
// descriptors produce bit-identical digests whatever order same-instant
// appends from different nodes reached the log in — which is what lets the
// recovery tests compare a recovered epoch against the digest recorded at
// commit time, and the schedule-perturbation checker compare it across
// tie-break orders.
//
// The absorber owns the image while it runs.  Once the engine has stopped,
// run_experiment moves it out (WriteAbsorber::take_log) into
// ExperimentResult::ckpt_log, which owns it from then on, shared and
// immutable, and leaves the absorber's log() empty; nothing copies it.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

namespace paraio::ckpt {

// FNV-1a 64 (same constants as testkit::Fnv64; duplicated here so the
// durable layer does not depend on the test kit).
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Folds one 64-bit value into an FNV-1a 64 state, byte by byte.
[[nodiscard]] constexpr std::uint64_t fnv_mix(std::uint64_t h,
                                              std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

/// Folds one data record's checksum into its epoch's digest.  A sum of
/// mixed checksums is commutative: the digest pins the set of records an
/// epoch holds, not their append order.  The splitmix64 finalizer spreads
/// each checksum over all 64 bits first, so related checksums do not cancel.
[[nodiscard]] constexpr std::uint64_t digest_fold(std::uint64_t digest,
                                                  std::uint64_t checksum) {
  std::uint64_t z = checksum + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return digest + (z ^ (z >> 31));
}

enum class RecordKind : std::uint8_t {
  kData,    ///< one node's checkpoint chunk: (epoch, node, offset, bytes)
  kCommit,  ///< epoch `epoch` is fully durable; `digest` pins its contents
};

struct LogRecord {
  RecordKind kind = RecordKind::kData;
  std::uint32_t node = 0;  // shares the first word with `kind`
  std::uint64_t epoch = 0;
  std::uint64_t offset = 0;  ///< position within the node's state image
  std::uint64_t bytes = 0;   ///< payload length (0 for kCommit)
  /// kCommit only: FNV digest of the epoch's data records at commit time.
  std::uint64_t digest = 0;
  /// Header checksum; a mismatch marks the record (and the rest of the
  /// image) as torn.
  std::uint64_t checksum = 0;

  [[nodiscard]] std::uint64_t expected_checksum() const;
};
static_assert(sizeof(LogRecord) == 48);
static_assert(std::is_trivially_copyable_v<LogRecord>);

/// One append-ordered run of records.  Sealed segments carry a checksum
/// chained over their records' checksums; the open tail segment does not
/// (it is the part of the log a crash can tear).
struct LogSegment {
  std::vector<LogRecord> records;
  std::uint64_t payload_bytes = 0;
  bool sealed = false;
  std::uint64_t checksum = 0;

  [[nodiscard]] std::uint64_t computed_checksum() const;
};

/// The durable image: what survives a crash of everything volatile.  A
/// value type on purpose — a test can copy an image and tear the copy, and
/// a later "restart" run recovers from exactly the bytes the crashed run
/// left.
class LogImage {
 public:
  explicit LogImage(std::uint64_t segment_bytes = 1 << 20)
      : segment_bytes_(segment_bytes ? segment_bytes : 1) {}

  /// Appends one record (its checksum is computed here), sealing the tail
  /// segment once it reaches the segment payload target.  (Named `push`
  /// rather than `append` so call sites are not confused with the
  /// coroutine WriteAbsorber::append.)
  void push(LogRecord record);

  [[nodiscard]] const std::vector<LogSegment>& segments() const noexcept {
    return segments_;
  }
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  [[nodiscard]] std::size_t record_count() const noexcept {
    return record_count_;
  }

  // Crash surgery for tests: drop all but the first `keep` records (a torn
  // tail), or flip a bit in the last record's header (media corruption).
  void truncate_records(std::size_t keep);
  void corrupt_last_record();

 private:
  std::uint64_t segment_bytes_;
  std::vector<LogSegment> segments_;
  std::uint64_t payload_bytes_ = 0;
  std::size_t record_count_ = 0;
};

/// What a forward replay of the image yields.
struct RecoveredState {
  /// Last fully committed epoch (0 = no commit survived).
  std::uint64_t epoch = 0;
  /// Digest of that epoch's data records, recomputed during replay.  Equal
  /// to the digest stored in the commit record by construction — replay
  /// rejects a commit whose stored digest disagrees.
  std::uint64_t digest = 0;
  std::uint64_t committed_bytes = 0;   ///< payload covered by commits
  std::uint64_t records_replayed = 0;  ///< up to and incl. the last commit
  std::uint64_t torn_records = 0;      ///< discarded (tail or corrupt)
  std::uint64_t torn_bytes = 0;
};

/// Replays `log` front to back: verifies segment and record checksums,
/// folds data records into their epoch's digest, and accepts a commit
/// record only when its stored digest matches.  Stops at the first
/// corruption; everything after the last accepted commit is counted torn
/// and discarded.  Pure — recovery of the same image always yields the
/// same state.
[[nodiscard]] RecoveredState recover(const LogImage& log);

}  // namespace paraio::ckpt
