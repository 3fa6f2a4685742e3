// Admission audit log: what was decided, when, and why.
//
// A production admission service must answer "why was my job rejected at
// 14:02?" without re-running the planner. AuditLog is a bounded record of
// decisions with derived statistics: acceptance over time, rejection-reason
// histogram, and per-window-size acceptance (tight deadlines get rejected
// more — the histogram shows operators where the pressure is).
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <string>

#include "rota/admission/controller.hpp"

namespace rota {

struct AuditEntry {
  Tick at = 0;                 // decision time
  std::string computation;
  TimeInterval window;         // requested window
  Quantity total_demand = 0;   // aggregate quantity requested
  bool accepted = false;
  std::string reason;          // empty when accepted
  Tick planned_finish = 0;     // valid when accepted
  /// The committed plan (accepted entries only) — the write-ahead record
  /// replay_into() uses to rebuild a crashed node's ledger.
  std::optional<ConcurrentPlan> plan;
};

class AuditLog {
 public:
  /// Keeps at most `capacity` most-recent entries (older ones roll off).
  explicit AuditLog(std::size_t capacity = 4096);

  /// Records one decision (call right after RotaAdmissionController::request).
  void record(Tick at, const ConcurrentRequirement& rho,
              const AdmissionDecision& decision);

  const std::deque<AuditEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  std::size_t total_recorded() const { return total_; }

  /// Acceptance ratio over everything ever recorded (not just retained).
  double acceptance() const;

  /// Rejection reasons → counts, over retained entries.
  std::map<std::string, std::size_t> rejection_reasons() const;

  /// Acceptance ratio bucketed by requested window length: bucket k covers
  /// lengths [k·bucket_width, (k+1)·bucket_width). Over retained entries.
  std::map<Tick, double> acceptance_by_window(Tick bucket_width) const;

  /// Laxity actually granted to accepted jobs: mean of
  /// (window end − planned finish) / window length. 0 when none accepted.
  double mean_slack_fraction() const;

  /// Crash recovery: re-admits every retained accepted entry (in decision
  /// order, with its recorded plan) into `ledger`, then moves its clock to
  /// the last recorded decision tick (never backwards) and expires it.
  /// Replaying onto a fresh ledger with the pre-crash supply reproduces the
  /// pre-crash residual as of that tick and — when the log retains the
  /// node's full history — its revision counter.
  /// Returns the number of entries re-admitted; entries whose plan no longer
  /// fits (supply shrank since the crash) are skipped, never partially
  /// applied.
  std::size_t replay_into(CommitmentLedger& ledger) const;

  std::string to_string() const;

 private:
  std::size_t capacity_;
  std::deque<AuditEntry> entries_;
  std::size_t total_ = 0;
  std::size_t total_accepted_ = 0;
};

}  // namespace rota
