#include "wal/wal_manager.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/logging.h"

namespace youtopia::wal {

namespace {

/// Frame header: u32 length of payload + u32 crc32(payload).
constexpr size_t kFrameHeaderBytes = 8;
/// A record frame larger than this is treated as corruption, not
/// buffered against (mirrors the wire protocol's bound).
constexpr uint32_t kMaxRecordBytes = 64u * 1024 * 1024;

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status FsyncFd(int fd, const std::string& what) {
  if (::fsync(fd) != 0) return ErrnoStatus("fsync " + what);
  return Status::OK();
}

Status FsyncPath(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("open for fsync " + path);
  Status s = FsyncFd(fd, path);
  ::close(fd);
  return s;
}

Status WriteAll(int fd, const char* data, size_t n,
                const std::string& what) {
  size_t written = 0;
  while (written < n) {
    ssize_t r = ::write(fd, data + written, n - written);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write " + what);
    }
    written += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

WalManager::WalManager(WalConfig config) : config_(std::move(config)) {}

WalManager::~WalManager() {
  if (fd_ >= 0) ::close(fd_);
}

std::string WalManager::SegmentPath(uint64_t seq) const {
  char name[32];
  std::snprintf(name, sizeof(name), "wal-%010llu.log",
                static_cast<unsigned long long>(seq));
  return config_.dir + "/" + name;
}

std::string WalManager::EncodeFrame(const WalRecord& record) {
  WireWriter payload;
  record.EncodeTo(&payload);
  WireWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.bytes().size()));
  frame.PutU32(Crc32(payload.bytes()));
  std::string out = frame.Take();
  out += payload.bytes();
  return out;
}

Status WalManager::Open() {
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  if (ec) {
    return Status::Internal("create wal dir " + config_.dir + ": " +
                            ec.message());
  }

  // Load the checkpoint, if one was ever completed (rename is atomic,
  // so a crash mid-write leaves only checkpoint.tmp, which we ignore).
  const std::string checkpoint_path = config_.dir + "/checkpoint";
  std::ifstream in(checkpoint_path, std::ios::binary);
  if (in) {
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    WireReader header(bytes);
    uint32_t length = 0;
    uint32_t crc = 0;
    if (!header.GetU32(&length) || !header.GetU32(&crc) ||
        bytes.size() != kFrameHeaderBytes + length) {
      return Status::Internal("checkpoint file is malformed");
    }
    std::string_view payload(bytes.data() + kFrameHeaderBytes, length);
    if (Crc32(payload) != crc) {
      return Status::Internal("checkpoint file fails CRC");
    }
    WireReader reader(payload);
    CheckpointState state;
    if (!CheckpointState::DecodeFrom(&reader, &state) || !reader.AtEnd()) {
      return Status::Internal("checkpoint payload does not decode");
    }
    checkpoint_ = std::move(state);
  }
  const uint64_t first_segment =
      checkpoint_.has_value() ? checkpoint_->first_segment : 1;

  segments_.clear();
  for (const auto& entry : std::filesystem::directory_iterator(config_.dir)) {
    unsigned long long seq = 0;
    const std::string name = entry.path().filename().string();
    // Accept only names that round-trip through SegmentPath. sscanf alone
    // also matches unpadded ("wal-1.log") and suffixed ("wal-1.logx")
    // names; replay would then reopen the reconstructed padded path and
    // fail recovery outright — or, with both spellings present, replay
    // the same sequence number twice. (Found by fuzz_wal_replay.)
    if (std::sscanf(name.c_str(), "wal-%llu.log", &seq) == 1 &&
        SegmentPath(seq) == config_.dir + "/" + name) {
      if (seq < first_segment) {
        // Unreachable since the checkpoint; a crash interrupted the
        // post-checkpoint cleanup.
        std::filesystem::remove(entry.path(), ec);
        segments_deleted_.fetch_add(1, std::memory_order_relaxed);
      } else {
        segments_.push_back(seq);
      }
    }
  }
  std::sort(segments_.begin(), segments_.end());
  tail_seq_ = segments_.empty() ? first_segment : segments_.back();
  tail_offset_ = 0;
  if (!segments_.empty()) {
    tail_offset_ = static_cast<size_t>(
        std::filesystem::file_size(SegmentPath(segments_.back()), ec));
    if (ec) tail_offset_ = 0;
  }
  return Status::OK();
}

Status WalManager::Replay(
    const std::function<Status(const WalRecord&)>& apply) {
  const auto start = std::chrono::steady_clock::now();
  bool stopped = false;
  for (size_t i = 0; i < segments_.size() && !stopped; ++i) {
    const uint64_t seq = segments_[i];
    std::ifstream in(SegmentPath(seq), std::ios::binary);
    if (!in) return Status::Internal("cannot read " + SegmentPath(seq));
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    size_t offset = 0;
    while (offset + kFrameHeaderBytes <= bytes.size()) {
      WireReader header(
          std::string_view(bytes).substr(offset, kFrameHeaderBytes));
      uint32_t length = 0;
      uint32_t crc = 0;
      header.GetU32(&length);
      header.GetU32(&crc);
      if (length == 0 || length > kMaxRecordBytes ||
          offset + kFrameHeaderBytes + length > bytes.size()) {
        break;  // torn tail
      }
      std::string_view payload(bytes.data() + offset + kFrameHeaderBytes,
                               length);
      if (Crc32(payload) != crc) break;
      WireReader reader(payload);
      WalRecord record;
      if (!WalRecord::DecodeFrom(&reader, &record) || !reader.AtEnd()) break;
      YOUTOPIA_RETURN_IF_ERROR(apply(record));
      recovered_records_.fetch_add(1, std::memory_order_relaxed);
      bytes_since_checkpoint_.fetch_add(kFrameHeaderBytes + length,
                                        std::memory_order_relaxed);
      offset += kFrameHeaderBytes + length;
    }
    if (offset < bytes.size()) {
      // An invalid frame: everything at and past it is a torn tail —
      // only ever unacknowledged bytes, safe (and required) to drop.
      tail_seq_ = seq;
      tail_offset_ = offset;
      stopped = true;
    }
  }
  recovery_micros_.store(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start)
              .count()),
      std::memory_order_relaxed);
  return Status::OK();
}

Status WalManager::OpenSegmentLocked(uint64_t seq) {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const std::string path = SegmentPath(seq);
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd_ < 0) return ErrnoStatus("open segment " + path);
  current_seq_ = seq;
  segments_created_.fetch_add(1, std::memory_order_relaxed);
  if (segments_.empty() || segments_.back() != seq) segments_.push_back(seq);
  // Make the directory entry durable before any record lands in it.
  if (config_.fsync) {
    YOUTOPIA_RETURN_IF_ERROR(FsyncPath(config_.dir));
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status WalManager::OpenForAppend() {
  MutexLock lock(mu_);
  // Truncate the torn tail, then drop any segments past it — they are
  // unreachable once the tail is the logical end of the log.
  std::error_code ec;
  bool truncated = false;
  for (size_t i = 0; i < segments_.size(); ++i) {
    if (segments_[i] > tail_seq_) {
      std::filesystem::remove(SegmentPath(segments_[i]), ec);
      segments_deleted_.fetch_add(1, std::memory_order_relaxed);
      truncated = true;
    }
  }
  segments_.erase(
      std::remove_if(segments_.begin(), segments_.end(),
                     [&](uint64_t seq) { return seq > tail_seq_; }),
      segments_.end());
  if (!segments_.empty()) {
    const std::string path = SegmentPath(tail_seq_);
    if (std::filesystem::file_size(path, ec) != tail_offset_ && !ec) {
      std::filesystem::resize_file(path, tail_offset_, ec);
      if (ec) {
        return Status::Internal("truncate " + path + ": " + ec.message());
      }
      truncated = true;
    }
    current_segment_bytes_ = tail_offset_;
    YOUTOPIA_RETURN_IF_ERROR(OpenSegmentLocked(tail_seq_));
    segments_created_.fetch_sub(1, std::memory_order_relaxed);  // reopened
    if (truncated && config_.fsync) {
      YOUTOPIA_RETURN_IF_ERROR(FsyncFd(fd_, path));
      fsyncs_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    current_segment_bytes_ = 0;
    YOUTOPIA_RETURN_IF_ERROR(OpenSegmentLocked(tail_seq_));
  }
  open_for_append_ = true;
  return Status::OK();
}

Status WalManager::CrashedError() const {
  return Status::Aborted("wal crashed (simulated)");
}

Status WalManager::RotateIfNeededLocked(size_t incoming_bytes) {
  if (current_segment_bytes_ == 0 ||
      current_segment_bytes_ + incoming_bytes <= config_.segment_bytes) {
    return Status::OK();
  }
  if (config_.fsync && fd_ >= 0) {
    YOUTOPIA_RETURN_IF_ERROR(FsyncFd(fd_, SegmentPath(current_seq_)));
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
  }
  current_segment_bytes_ = 0;
  return OpenSegmentLocked(current_seq_ + 1);
}

Status WalManager::FlushBatch(const std::string& batch, size_t batch_records,
                              const std::function<bool(CrashPoint)>& hook) {
  // Runs with flush_in_progress_ set, so this thread owns the
  // fd/segment state. It must NOT touch
  // durable_lsn_ or io_error_ — those belong to mu_; callers update
  // them after relocking.
  if (batch.empty()) return Status::OK();
  if (hook && hook(CrashPoint::kBeforeWrite)) {
    crashed_.store(true, std::memory_order_release);
    return CrashedError();
  }
  YOUTOPIA_RETURN_IF_ERROR(RotateIfNeededLocked(batch.size()));
  if (hook && hook(CrashPoint::kMidWrite)) {
    // Half the batch reaches disk: a torn record for recovery to find.
    (void)WriteAll(fd_, batch.data(), batch.size() / 2, "torn batch");
    crashed_.store(true, std::memory_order_release);
    return CrashedError();
  }
  YOUTOPIA_RETURN_IF_ERROR(
      WriteAll(fd_, batch.data(), batch.size(), SegmentPath(current_seq_)));
  current_segment_bytes_ += batch.size();
  if (hook && hook(CrashPoint::kBeforeFsync)) {
    // Bytes written, never acknowledged: recovery may legitimately
    // surface more state than was acked.
    crashed_.store(true, std::memory_order_release);
    return CrashedError();
  }
  if (config_.fsync) {
    YOUTOPIA_RETURN_IF_ERROR(FsyncFd(fd_, SegmentPath(current_seq_)));
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
  }
  bytes_since_checkpoint_.fetch_add(batch.size(), std::memory_order_relaxed);
  group_commit_batches_.fetch_add(1, std::memory_order_relaxed);
  batch_records_.Record(batch_records);
  return Status::OK();
}

Result<Lsn> WalManager::AppendLocked(const WalRecord& record) {
  if (crashed()) return CrashedError();
  if (!io_error_.ok()) return io_error_;
  if (!open_for_append_) {
    return Status::Internal("wal is not open for append");
  }
  std::string frame = EncodeFrame(record);
  const Lsn lsn = ++appended_lsn_;
  records_appended_.fetch_add(1, std::memory_order_relaxed);
  bytes_appended_.fetch_add(frame.size(), std::memory_order_relaxed);
  pending_ += frame;
  ++pending_records_;
  return lsn;
}

Result<Lsn> WalManager::Append(const WalRecord& record) {
  MutexLock lock(mu_);
  return AppendLocked(record);
}

Result<Lsn> WalManager::AppendSerialized(
    const std::function<Status()>& action, const WalRecord& record) {
  MutexLock lock(mu_);
  if (crashed()) return CrashedError();
  if (!io_error_.ok()) return io_error_;
  YOUTOPIA_RETURN_IF_ERROR(action());
  return AppendLocked(record);
}

Status WalManager::Sync(Lsn lsn) {
  MutexLock lock(mu_);
  syncs_.fetch_add(1, std::memory_order_relaxed);
  for (;;) {
    if (crashed()) return CrashedError();
    if (!io_error_.ok()) return io_error_;
    if (durable_lsn_ >= lsn) return Status::OK();
    if (flush_in_progress_) {
      cv_.Wait(mu_);
      continue;
    }
    // Leader: take everything buffered and flush it with one fsync.
    flush_in_progress_ = true;
    std::string batch = std::move(pending_);
    pending_.clear();
    const size_t batch_records = pending_records_;
    pending_records_ = 0;
    const Lsn batch_lsn = appended_lsn_;
    auto hook = crash_hook_;
    lock.Unlock();
    // Segment/fd state is safe outside mu_: flush_in_progress_ makes
    // this thread the only flusher.
    Status s = FlushBatch(batch, batch_records, hook);
    lock.Lock();
    flush_in_progress_ = false;
    if (s.ok()) {
      durable_lsn_ = std::max(durable_lsn_, batch_lsn);
    } else if (!crashed()) {
      io_error_ = s;
    }
    cv_.NotifyAll();
    if (!s.ok()) return s;
  }
}

Status WalManager::SyncAll() {
  Lsn target = 0;
  {
    MutexLock lock(mu_);
    target = appended_lsn_;
  }
  return Sync(target);
}

bool WalManager::ShouldCheckpoint() const {
  return bytes_since_checkpoint_.load(std::memory_order_relaxed) >=
         config_.checkpoint_bytes;
}

Status WalManager::WriteCheckpoint(CheckpointState state) {
  MutexLock lock(mu_);
  cv_.Wait(mu_, [&] { return !flush_in_progress_; });
  if (crashed()) return CrashedError();
  if (!io_error_.ok()) return io_error_;
  if (!open_for_append_) {
    return Status::Internal("wal is not open for append");
  }

  // Buffered records' effects are inside `state`, but until the rename
  // lands the old checkpoint + log remain authoritative — so flush them
  // first; the checkpoint then supersedes them.
  std::string batch = std::move(pending_);
  pending_.clear();
  const size_t batch_records = pending_records_;
  pending_records_ = 0;
  Status s = FlushBatch(batch, batch_records, crash_hook_);
  if (!s.ok()) {
    if (!crashed()) io_error_ = s;
    return s;
  }
  durable_lsn_ = appended_lsn_;

  // Rotate so the checkpoint can name a clean first segment.
  if (config_.fsync && fd_ >= 0 && current_segment_bytes_ > 0) {
    YOUTOPIA_RETURN_IF_ERROR(FsyncFd(fd_, SegmentPath(current_seq_)));
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
  }
  current_segment_bytes_ = 0;
  YOUTOPIA_RETURN_IF_ERROR(OpenSegmentLocked(current_seq_ + 1));
  state.first_segment = current_seq_;

  WireWriter payload;
  state.EncodeTo(&payload);
  WireWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.bytes().size()));
  frame.PutU32(Crc32(payload.bytes()));

  const std::string tmp_path = config_.dir + "/checkpoint.tmp";
  const std::string final_path = config_.dir + "/checkpoint";
  int tmp = ::open(tmp_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (tmp < 0) return ErrnoStatus("open " + tmp_path);
  s = WriteAll(tmp, frame.bytes().data(), frame.bytes().size(), tmp_path);
  if (s.ok()) {
    s = WriteAll(tmp, payload.bytes().data(), payload.bytes().size(),
                 tmp_path);
  }
  if (s.ok() && config_.fsync) {
    s = FsyncFd(tmp, tmp_path);
    if (s.ok()) fsyncs_.fetch_add(1, std::memory_order_relaxed);
  }
  ::close(tmp);
  YOUTOPIA_RETURN_IF_ERROR(s);
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return ErrnoStatus("rename " + tmp_path);
  }
  if (config_.fsync) {
    YOUTOPIA_RETURN_IF_ERROR(FsyncPath(config_.dir));
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
  }

  // The rename is the commit point; older segments are unreachable now.
  std::error_code ec;
  for (uint64_t seq : segments_) {
    if (seq < state.first_segment) {
      std::filesystem::remove(SegmentPath(seq), ec);
      segments_deleted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  segments_.erase(
      std::remove_if(segments_.begin(), segments_.end(),
                     [&](uint64_t seq) { return seq < state.first_segment; }),
      segments_.end());
  bytes_since_checkpoint_.store(0, std::memory_order_relaxed);
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  // A completed checkpoint makes every appended record durable
  // transitively (its effects are in the snapshot).
  durable_lsn_ = appended_lsn_;
  cv_.NotifyAll();
  return Status::OK();
}

WalStats WalManager::stats() const {
  WalStats out;
  out.records_appended = records_appended_.load(std::memory_order_relaxed);
  out.bytes_appended = bytes_appended_.load(std::memory_order_relaxed);
  out.syncs = syncs_.load(std::memory_order_relaxed);
  out.fsyncs = fsyncs_.load(std::memory_order_relaxed);
  out.group_commit_batches =
      group_commit_batches_.load(std::memory_order_relaxed);
  out.batch_records = batch_records_;
  out.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  out.segments_created = segments_created_.load(std::memory_order_relaxed);
  out.segments_deleted = segments_deleted_.load(std::memory_order_relaxed);
  out.recovered_records = recovered_records_.load(std::memory_order_relaxed);
  out.recovery_micros = recovery_micros_.load(std::memory_order_relaxed);
  return out;
}

void WalManager::SimulateCrash() {
  MutexLock lock(mu_);
  pending_.clear();
  pending_records_ = 0;
  crashed_.store(true, std::memory_order_release);
  cv_.NotifyAll();
}

void WalManager::SetCrashHook(std::function<bool(CrashPoint)> hook) {
  MutexLock lock(mu_);
  crash_hook_ = std::move(hook);
}

}  // namespace youtopia::wal
