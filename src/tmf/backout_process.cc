#include "tmf/backout_process.h"

#include <algorithm>
#include <memory>

#include "audit/audit_process.h"
#include "common/logging.h"
#include "discprocess/disc_protocol.h"

namespace encompass::tmf {

constexpr SimDuration kFetchTimeout = Seconds(2);  // one audit-image fetch
constexpr SimDuration kUndoTimeout = Seconds(2);   // one compensating update

void BackoutProcess::OnRequest(const net::Message& msg) {
  if (!IsPrimary()) {
    Reply(msg, Status::Unavailable("backup backout process"));
    return;
  }
  if (msg.tag != kBackoutTxn) {
    Reply(msg, Status::InvalidArgument("unknown backout tag"));
    return;
  }
  auto t = DecodeTransidPayload(Slice(msg.payload));
  if (!t.ok()) {
    Reply(msg, t.status());
    return;
  }
  RunBackout(msg, *t);
}

void BackoutProcess::OnPairAttach() {
  m_requests_ = stats().RegisterCounter("backout.requests");
  m_undos_ = stats().RegisterCounter("backout.undos");
}

void BackoutProcess::RunBackout(const net::Message& request,
                                const Transid& transid) {
  stats().Incr(m_requests_);
  auto collected = std::make_shared<std::vector<audit::AuditRecord>>();
  auto pending = std::make_shared<int>(
      static_cast<int>(config_.audit_processes.size()));
  auto failed = std::make_shared<bool>(false);
  net::Message req = request;

  auto apply_undos = [this, req, collected, failed, transid]() {
    if (*failed) {
      Reply(req, Status::IoError("could not fetch audit images"));
      return;
    }
    // Undo newest-first so multiple updates of one record unwind correctly.
    std::sort(collected->begin(), collected->end(),
              [](const audit::AuditRecord& a, const audit::AuditRecord& b) {
                return a.lsn > b.lsn;
              });
    auto undo_pending = std::make_shared<int>(static_cast<int>(collected->size()));
    auto undo_failed = std::make_shared<bool>(false);
    if (*undo_pending == 0) {
      Reply(req, Status::Ok());
      return;
    }
    // The undos are issued sequentially (each after the previous reply) to
    // preserve per-record ordering across volumes deterministically. The
    // closure holds itself only weakly; each in-flight undo's callback holds
    // it strongly, so it is freed once the last reply is handled.
    auto issue = std::make_shared<std::function<void(size_t)>>();
    std::weak_ptr<std::function<void(size_t)>> weak_issue = issue;
    *issue = [this, req, collected, undo_failed, transid,
              weak_issue](size_t idx) {
      if (idx >= collected->size()) {
        Reply(req, *undo_failed
                       ? Status::IoError("undo failed")
                       : Status::Ok());
        return;
      }
      const audit::AuditRecord& rec = (*collected)[idx];
      discprocess::DiscRequest undo;
      undo.file = rec.file;
      undo.key = rec.key;
      undo.record = rec.before;
      undo.undo_op = rec.op;
      os::CallOptions opt;
      opt.timeout = kUndoTimeout;
      opt.retries = 2;
      uint64_t saved = current_transid();
      set_current_transid(transid.Pack());
      stats().Incr(m_undos_);
      Call(net::Address(node()->id(), rec.volume), discprocess::kDiscUndo,
           undo.Encode(),
           [undo_failed, self = weak_issue.lock(), idx](
               const Status& s, const net::Message&) {
             if (!s.ok()) *undo_failed = true;
             (*self)(idx + 1);
           },
           opt);
      set_current_transid(saved);
    };
    (*issue)(0);
  };

  if (*pending == 0) {
    apply_undos();
    return;
  }
  for (const auto& name : config_.audit_processes) {
    os::CallOptions opt;
    opt.timeout = kFetchTimeout;
    opt.retries = 2;
    Bytes payload;
    PutFixed64(&payload, transid.Pack());
    Call(net::Address(node()->id(), name), audit::kAuditFetchTxn,
         std::move(payload),
         [collected, pending, failed, apply_undos](const Status& s,
                                                   const net::Message& m) {
           if (!s.ok()) {
             *failed = true;
           } else {
             auto batch = audit::DecodeAuditBatch(Slice(m.payload));
             if (batch.ok()) {
               collected->insert(collected->end(), batch->begin(), batch->end());
             } else {
               *failed = true;
             }
           }
           if (--*pending == 0) apply_undos();
         },
         opt);
  }
}

}  // namespace encompass::tmf
