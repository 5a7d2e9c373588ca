// GroupCommit: the one group-commit batcher of the commit path, owned by
// the AUDITPROCESS (audit-trail force) and the TMP (MAT commit-record force).

#ifndef ENCOMPASS_AUDIT_GROUP_COMMIT_H_
#define ENCOMPASS_AUDIT_GROUP_COMMIT_H_

#include <functional>
#include <utility>
#include <vector>

#include "audit/audit_trail.h"
#include "os/process.h"

namespace encompass::audit {

/// One physical forced write (kDiscForceLatency) serves every waiter that
/// joined before it started. The rule and its invariants:
///   * A waiter joins the batch of the *next* write, never one in flight:
///     that write began before the waiter's data existed.
///   * With no window open and no write in flight, Join opens the gathering
///     window (`window` > 0, a timer on the owner) or starts the write now.
///   * The batch is fixed at write start, when `on_write_start(n)` runs
///     (the audit side forces the trail there), before the write's timer.
///   * When the write lands, each waiter's `done` runs in join order under
///     the trace context it joined with; a batch drains whole before the
///     next cycle (window first) begins, so no waiter starves.
///   * The state is volatile, in the pair's primary: after a takeover the
///     requesters re-drive (file-system retry; re-run phase one).
class GroupCommit {
 public:
  GroupCommit(os::Process* owner, SimDuration window,
              std::function<void(size_t batch)> on_write_start)
      : owner_(owner), window_(window),
        on_write_start_(std::move(on_write_start)) {}
  GroupCommit(const GroupCommit&) = delete;  // its timers capture `this`
  GroupCommit& operator=(const GroupCommit&) = delete;

  /// Joins the next physical write; `done` runs when that write lands.
  void Join(std::function<void()> done) {
    waiting_.push_back(Waiter{std::move(done), owner_->current_trace()});
    if (!write_in_flight_ && !gathering_) Arm();
  }

 private:
  struct Waiter { std::function<void()> done; sim::TraceContext trace; };

  void Arm() {
    if (window_ <= 0) return Start();
    gathering_ = true;
    owner_->SetTimer(window_, [this]() { Start(); });
  }

  void Start() {
    gathering_ = false;
    if (waiting_.empty()) return;
    write_in_flight_ = true;
    std::vector<Waiter> batch = std::move(waiting_);
    waiting_.clear();
    on_write_start_(batch.size());
    owner_->SetTimer(kDiscForceLatency, [this, batch = std::move(batch)]() {
      write_in_flight_ = false;
      for (const Waiter& w : batch) owner_->WithTraceContext(w.trace, w.done);
      if (!waiting_.empty()) Arm();
    });
  }

  os::Process* owner_;
  SimDuration window_;
  std::function<void(size_t)> on_write_start_;
  std::vector<Waiter> waiting_;   ///< the next write's batch
  bool gathering_ = false;        ///< window timer armed
  bool write_in_flight_ = false;  ///< kDiscForceLatency timer armed
};

}  // namespace encompass::audit

#endif  // ENCOMPASS_AUDIT_GROUP_COMMIT_H_
