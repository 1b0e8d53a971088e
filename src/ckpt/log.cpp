#include "ckpt/log.hpp"

#include <algorithm>

namespace paraio::ckpt {

std::uint64_t LogRecord::expected_checksum() const {
  std::uint64_t h = kFnvOffset;
  h = fnv_mix(h, static_cast<std::uint64_t>(kind));
  h = fnv_mix(h, epoch);
  h = fnv_mix(h, node);
  h = fnv_mix(h, offset);
  h = fnv_mix(h, bytes);
  h = fnv_mix(h, digest);
  return h;
}

std::uint64_t LogSegment::computed_checksum() const {
  std::uint64_t h = kFnvOffset;
  for (const LogRecord& r : records) h = fnv_mix(h, r.checksum);
  return h;
}

void LogImage::push(LogRecord record) {
  record.checksum = record.expected_checksum();
  if (segments_.empty() || segments_.back().sealed) {
    segments_.emplace_back();
  }
  LogSegment& seg = segments_.back();
  seg.records.push_back(record);
  seg.payload_bytes += record.bytes;
  payload_bytes_ += record.bytes;
  ++record_count_;
  if (seg.payload_bytes >= segment_bytes_) {
    seg.sealed = true;
    seg.checksum = seg.computed_checksum();
  }
}

void LogImage::truncate_records(std::size_t keep) {
  std::size_t seen = 0;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    LogSegment& seg = segments_[s];
    if (seen + seg.records.size() <= keep) {
      seen += seg.records.size();
      continue;
    }
    const std::size_t within = keep - seen;
    for (std::size_t r = within; r < seg.records.size(); ++r) {
      seg.payload_bytes -= seg.records[r].bytes;
    }
    seg.records.resize(within);
    // A truncated segment no longer matches its sealed checksum — exactly
    // the state a crash mid-segment-write leaves behind.
    segments_.resize(seg.records.empty() ? s : s + 1);
    // The later segments went too: recount what is left.
    payload_bytes_ = 0;
    record_count_ = 0;
    for (const LogSegment& left : segments_) {
      payload_bytes_ += left.payload_bytes;
      record_count_ += left.records.size();
    }
    return;
  }
}

void LogImage::corrupt_last_record() {
  for (auto it = segments_.rbegin(); it != segments_.rend(); ++it) {
    if (!it->records.empty()) {
      it->records.back().epoch ^= 1u;  // header no longer matches checksum
      return;
    }
  }
}

RecoveredState recover(const LogImage& log) {
  RecoveredState out;
  std::uint64_t running = kFnvOffset;  // digest of the open epoch
  std::uint64_t epoch_bytes = 0;
  std::uint64_t replayed = 0;
  bool torn = false;

  for (const LogSegment& seg : log.segments()) {
    if (torn) break;
    // A sealed segment whose chained checksum disagrees was torn by the
    // crash (or corrupted on media): it and everything after it is suspect.
    if (seg.sealed && seg.checksum != seg.computed_checksum()) break;
    for (const LogRecord& r : seg.records) {
      if (r.checksum != r.expected_checksum()) {
        torn = true;
        break;
      }
      ++replayed;
      if (r.kind == RecordKind::kData) {
        running = digest_fold(running, r.checksum);
        epoch_bytes += r.bytes;
      } else {
        if (r.digest != running) {
          // A commit record that does not pin the data it claims to: treat
          // it (and the rest of the image) as torn.
          torn = true;
          --replayed;
          break;
        }
        out.epoch = r.epoch;
        out.digest = r.digest;
        out.committed_bytes += epoch_bytes;
        out.records_replayed = replayed;
        running = kFnvOffset;
        epoch_bytes = 0;
      }
    }
  }
  out.torn_records = log.record_count() - out.records_replayed;
  out.torn_bytes = log.payload_bytes() - out.committed_bytes;
  return out;
}

}  // namespace paraio::ckpt
