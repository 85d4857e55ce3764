#include "server/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "entangle/coordinator.h"
#include "server/plan_cache.h"
#include "service/executor_service.h"
#include "wal/wal_manager.h"

namespace youtopia {

void AppendMetric(const std::string& name, const std::string& type,
                  double value, std::string* out) {
  out->append("# TYPE ");
  out->append(name);
  out->push_back(' ');
  out->append(type);
  out->push_back('\n');
  out->append(name);
  out->push_back(' ');
  char buf[64];
  if (std::nearbyint(value) == value && std::fabs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.6g", value);
  }
  out->append(buf);
  out->push_back('\n');
}

void AppendEngineMetrics(const Youtopia& db, std::string* out) {
  const ExecutorService::Stats exec = db.executor_service().stats();
  AppendMetric("youtopia_executor_workers", "gauge",
               static_cast<double>(exec.workers), out);
  AppendMetric("youtopia_executor_queue_depth", "gauge",
               static_cast<double>(exec.queue_depth), out);
  AppendMetric("youtopia_executor_peak_queue_depth", "gauge",
               static_cast<double>(exec.peak_queue_depth), out);
  AppendMetric("youtopia_executor_executing", "gauge",
               static_cast<double>(exec.executing), out);
  AppendMetric("youtopia_executor_submitted_total", "counter",
               static_cast<double>(exec.submitted), out);
  AppendMetric("youtopia_executor_executed_total", "counter",
               static_cast<double>(exec.executed), out);
  AppendMetric("youtopia_executor_lock_requeues_total", "counter",
               static_cast<double>(exec.lock_requeues), out);
  AppendMetric("youtopia_executor_entangled_parked_total", "counter",
               static_cast<double>(exec.entangled_parked), out);
  AppendMetric("youtopia_executor_rejected_total", "counter",
               static_cast<double>(exec.rejected), out);
  AppendMetric("youtopia_executor_shed_total", "counter",
               static_cast<double>(exec.shed), out);
  AppendMetric("youtopia_executor_worker_utilization", "gauge",
               exec.WorkerUtilization(), out);

  const CoordinatorStats coord = db.coordinator().stats();
  AppendMetric("youtopia_coordinator_pending", "gauge",
               static_cast<double>(db.coordinator().pending_count()), out);
  AppendMetric("youtopia_coordinator_submitted_total", "counter",
               static_cast<double>(coord.submitted), out);
  AppendMetric("youtopia_coordinator_matched_queries_total", "counter",
               static_cast<double>(coord.matched_queries), out);
  AppendMetric("youtopia_coordinator_matched_groups_total", "counter",
               static_cast<double>(coord.matched_groups), out);
  AppendMetric("youtopia_coordinator_cancelled_total", "counter",
               static_cast<double>(coord.cancelled), out);
  AppendMetric("youtopia_coordinator_retrigger_rounds_total", "counter",
               static_cast<double>(coord.retrigger_rounds), out);
  AppendMetric("youtopia_coordinator_match_calls_total", "counter",
               static_cast<double>(coord.match_calls), out);

  const StorageEngine::AccessStats access = db.storage().access_stats();
  AppendMetric("youtopia_storage_full_walks_total", "counter",
               static_cast<double>(access.full_walks), out);
  AppendMetric("youtopia_storage_rows_copied_total", "counter",
               static_cast<double>(access.rows_copied), out);
  AppendMetric("youtopia_storage_postings_read_total", "counter",
               static_cast<double>(access.postings_read), out);

  const PlanCache::Stats plans = db.plan_cache().stats();
  AppendMetric("youtopia_plan_cache_hits_total", "counter",
               static_cast<double>(plans.hits), out);
  AppendMetric("youtopia_plan_cache_misses_total", "counter",
               static_cast<double>(plans.misses), out);
  AppendMetric("youtopia_plan_cache_evictions_total", "counter",
               static_cast<double>(plans.evictions), out);
  AppendMetric("youtopia_plan_cache_invalidations_total", "counter",
               static_cast<double>(plans.invalidations), out);
  AppendMetric("youtopia_plan_cache_size", "gauge",
               static_cast<double>(plans.size), out);

  // Process memory, from Linux's /proc/self/status: resident now, and
  // the peak (VmHWM), which is what perfbench reports as server_rss_mb.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    long long kib = 0;
    if (std::sscanf(line.c_str(), "VmRSS: %lld kB", &kib) == 1) {
      AppendMetric("process_resident_memory_bytes", "gauge",
                   static_cast<double>(kib) * 1024, out);
    } else if (std::sscanf(line.c_str(), "VmHWM: %lld kB", &kib) == 1) {
      AppendMetric("youtopia_process_peak_resident_bytes", "gauge",
                   static_cast<double>(kib) * 1024, out);
    }
  }

  AppendMetric("youtopia_wal_enabled", "gauge", db.wal() ? 1 : 0, out);
  if (db.wal() != nullptr) {
    const wal::WalStats wal = db.wal()->stats();
    AppendMetric("youtopia_wal_records_appended_total", "counter",
                 static_cast<double>(wal.records_appended), out);
    AppendMetric("youtopia_wal_bytes_appended_total", "counter",
                 static_cast<double>(wal.bytes_appended), out);
    AppendMetric("youtopia_wal_fsyncs_total", "counter",
                 static_cast<double>(wal.fsyncs), out);
    AppendMetric("youtopia_wal_group_commit_batches_total", "counter",
                 static_cast<double>(wal.group_commit_batches), out);
    AppendMetric("youtopia_wal_checkpoints_total", "counter",
                 static_cast<double>(wal.checkpoints), out);
  }
}

}  // namespace youtopia
