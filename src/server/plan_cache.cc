#include "server/plan_cache.h"

#include "sql/ast.h"

namespace youtopia {

PreparedStatementPtr PlanCache::Lookup(const std::string& key,
                                       const Catalog& catalog) {
  if (!enabled()) return nullptr;
  PreparedStatementPtr candidate;
  {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    candidate = it->second->plan;
  }
  // The freshness check reads the catalog, whose mutex ranks *below*
  // this cache's (kCatalog 140 < kPlanCache 170) — so it runs between
  // the two critical sections, never under mu_. The entry is re-looked-
  // up afterwards and touched only if it is still the same plan (a
  // concurrent replace keeps its own, fresher stamps).
  if (PreparedStatementFresh(*candidate, catalog)) {
    MutexLock lock(mu_);
    auto it = index_.find(key);
    if (it != index_.end() && it->second->plan == candidate) {
      lru_.splice(lru_.begin(), lru_, it->second);
    }
    ++stats_.hits;
    return candidate;
  }
  // Stale: a referenced table changed since this plan was built.
  // Discard lazily here rather than sweeping on every DDL — DDL is
  // rare and must not pay O(cache).
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end() && it->second->plan == candidate) {
    lru_.erase(it->second);
    index_.erase(it);
  }
  ++stats_.invalidations;
  ++stats_.misses;
  return nullptr;
}

void PlanCache::Insert(const std::string& key, PreparedStatementPtr plan) {
  if (!enabled() || plan == nullptr) return;
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    // Replace in place (a concurrent preparer of the same statement or
    // a fresher plan after DDL); keeps the entry's LRU position hot.
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(plan)});
  index_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void PlanCache::Clear() {
  MutexLock lock(mu_);
  lru_.clear();
  index_.clear();
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(mu_);
  Stats snapshot = stats_;
  snapshot.size = lru_.size();
  snapshot.capacity = capacity_;
  return snapshot;
}

size_t PlanCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

std::string PlanCache::NormalizeKey(std::string_view sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_string = false;
  bool pending_space = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    const char c = sql[i];
    if (in_string) {
      out.push_back(c);
      // The lexer escapes a quote inside a literal as ''; both bytes
      // stay inside the string state.
      if (c == '\'') {
        if (i + 1 < sql.size() && sql[i + 1] == '\'') {
          out.push_back(sql[++i]);
        } else {
          in_string = false;
        }
      }
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
        c == '\v') {
      pending_space = !out.empty();
      continue;
    }
    if (c == '-' && i + 1 < sql.size() && sql[i + 1] == '-') {
      // A comment separates tokens like whitespace. It must end where
      // the lexer ends it, at '\n': collapsing the newline into the
      // comment would fold the next line's text into the key.
      while (i + 1 < sql.size() && sql[i + 1] != '\n') ++i;
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    out.push_back(c);
    if (c == '\'') in_string = true;
  }
  // One statement-terminating ';' is syntax-neutral for ParseStatement,
  // but only one: "X;;" fails to parse, so its key keeps both.
  if (!out.empty() && out.back() == ';') {
    size_t end = out.size() - 1;
    while (end > 0 && out[end - 1] == ' ') --end;
    if (end == 0 || out[end - 1] != ';') out.resize(end);
  }
  return out;
}

bool PlanCache::Cacheable(const Statement& stmt) {
  switch (stmt.kind) {
    case StatementKind::kInsert:
      return static_cast<const InsertStatement&>(stmt).rows.size() <= 1;
    case StatementKind::kSelect:
      return !static_cast<const SelectStatement&>(stmt).IsEntangled();
    default:
      return true;
  }
}

}  // namespace youtopia
