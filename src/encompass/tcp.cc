#include "encompass/tcp.h"

#include "common/coding.h"
#include "common/logging.h"
#include "encompass/server.h"

namespace encompass::app {

constexpr SimDuration kVerbTimeout = Seconds(10);  // BEGIN/END/ABORT calls

SendDirective DefaultReplyPolicy(Fields&, const Status& status, const Slice&) {
  if (status.ok()) return SendDirective::kContinue;
  LOG_DEBUG << "SEND reply error: " << status.ToString();
  if (status.IsTimeout() || status.IsRestartRequested() || status.IsAborted() ||
      status.IsBusy() || status.IsUnavailable() || status.IsPartitioned()) {
    return SendDirective::kRestartTransaction;
  }
  return SendDirective::kFailProgram;
}

void Tcp::OnPairAttach() {
  sim::Stats& stats = this->stats();
  m_.terminals_attached = stats.RegisterCounter("tcp.terminals_attached");
  m_.commits = stats.RegisterCounter("tcp.commits");
  m_.voluntary_aborts = stats.RegisterCounter("tcp.voluntary_aborts");
  m_.failed_aborts = stats.RegisterCounter("tcp.failed_aborts");
  m_.restart_limit_exceeded = stats.RegisterCounter("tcp.restart_limit_exceeded");
  m_.txn_restarts = stats.RegisterCounter("tcp.txn_restarts");
  m_.programs_completed = stats.RegisterCounter("tcp.programs_completed");
  m_.programs_failed = stats.RegisterCounter("tcp.programs_failed");
  m_.terminals_done = stats.RegisterCounter("tcp.terminals_done");
  m_.takeover_restarts = stats.RegisterCounter("tcp.takeover_restarts");
}

bool Tcp::AttachTerminal(const std::string& terminal_name,
                         const std::string& program_name, uint64_t iterations) {
  if (terminals_.size() >= config_.max_terminals) return false;
  auto it = config_.programs.find(program_name);
  if (it == config_.programs.end()) return false;
  Terminal term;
  term.name = terminal_name;
  term.program_name = program_name;
  term.program = it->second;
  term.remaining = iterations;
  terminals_.push_back(std::move(term));
  size_t idx = terminals_.size() - 1;
  CheckpointTerminal(terminals_[idx]);
  stats().Incr(m_.terminals_attached);
  // Kick off interpretation as a scheduled event.
  SetTimer(Micros(1), [this, idx]() { Step(idx); });
  return true;
}

size_t Tcp::idle_terminals() const {
  size_t n = 0;
  for (const auto& t : terminals_) n += t.done ? 1 : 0;
  return n;
}

void Tcp::Step(size_t idx) {
  if (!IsPrimary() || idx >= terminals_.size()) return;
  Terminal& term = terminals_[idx];
  if (term.done || term.waiting) return;

  while (term.pc < term.program->verbs().size()) {
    const auto& verb = term.program->verbs()[term.pc];
    switch (verb.type) {
      case ScreenProgram::VerbType::kAccept:
        verb.accept(term.fields, sim()->RngFor(id().node));
        ++term.pc;
        continue;
      case ScreenProgram::VerbType::kCompute:
        verb.compute(term.fields);
        ++term.pc;
        continue;
      case ScreenProgram::VerbType::kBegin:
        RunBegin(idx);
        return;
      case ScreenProgram::VerbType::kSend:
        RunSend(idx, verb);
        return;
      case ScreenProgram::VerbType::kEnd:
        RunEnd(idx);
        return;
      case ScreenProgram::VerbType::kAbort:
        RunAbort(idx, /*then_restart=*/false, /*voluntary=*/true);
        return;
      case ScreenProgram::VerbType::kRestart:
        RestartTransaction(idx);
        return;
    }
  }
  FinishIteration(idx, /*success=*/true);
}

void Tcp::RunBegin(size_t idx) {
  Terminal& term = terminals_[idx];
  term.waiting = true;
  // Checkpoint the data extracted from the input screen(s): a restart after
  // failure resumes here without re-entering input.
  term.begin_snapshot = term.fields;
  term.begin_pc = term.pc;
  CheckpointTerminal(term);
  os::CallOptions opt;
  opt.timeout = kVerbTimeout;
  opt.retries = 2;
  Call(Tmp(), tmf::kTmfBegin, {},
       [this, idx](const Status& s, const net::Message& m) {
         Terminal& term = terminals_[idx];
         term.waiting = false;
         if (!s.ok()) {
           // TMP unavailable: retry the BEGIN shortly.
           SetTimer(Millis(100), [this, idx]() { Step(idx); });
           return;
         }
         auto t = tmf::DecodeTransidPayload(Slice(m.payload));
         if (!t.ok()) {
           FinishIteration(idx, false);
           return;
         }
         // The terminal enters transaction mode.
         term.transid = t->Pack();
         ++term.pc;
         CheckpointTerminal(term);
         Step(idx);
       },
       opt);
}

void Tcp::RunSend(size_t idx, const ScreenProgram::Verb& verb) {
  Terminal& term = terminals_[idx];
  term.waiting = true;
  Bytes request = verb.build_request(term.fields);
  net::NodeId dest = verb.server_node == 0 ? node()->id() : verb.server_node;

  auto issue_send = [this, idx, dest, server_class = verb.server_class,
                     request = std::move(request)]() {
    Terminal& term = terminals_[idx];
    os::CallOptions opt;
    opt.timeout = config_.send_timeout;
    set_current_transid(term.transid);
    Call(net::Address(dest, server_class), kServerRequest, request,
         [this, idx](const Status& s, const net::Message& m) {
           Terminal& term = terminals_[idx];
           term.waiting = false;
           const auto& verb = term.program->verbs()[term.pc];
           SendDirective d = verb.on_reply(term.fields, s, Slice(m.payload));
           if (d == SendDirective::kContinue) ++term.pc;
           ApplyDirective(idx, d);
         },
         opt);
    set_current_transid(0);
  };

  if (term.transid != 0 && dest != node()->id()) {
    // First transmission of the transid to another node must be preceded by
    // remote-transaction-begin via the TMPs.
    os::CallOptions opt;
    opt.timeout = kVerbTimeout;
    Call(Tmp(), tmf::kTmfEnsureRemote,
         tmf::EncodeEnsureRemote(Transid::Unpack(term.transid), dest),
         [this, idx, issue_send](const Status& s, const net::Message&) {
           if (!s.ok()) {
             Terminal& term = terminals_[idx];
             term.waiting = false;
             ApplyDirective(idx, SendDirective::kRestartTransaction);
             return;
           }
           issue_send();
         },
         opt);
    return;
  }
  issue_send();
}

void Tcp::ApplyDirective(size_t idx, SendDirective directive) {
  switch (directive) {
    case SendDirective::kContinue:
      Step(idx);
      return;
    case SendDirective::kRestartTransaction:
      RestartTransaction(idx);
      return;
    case SendDirective::kAbortTransaction:
      RunAbort(idx, /*then_restart=*/false, /*voluntary=*/true);
      return;
    case SendDirective::kFailProgram:
      RunAbort(idx, /*then_restart=*/false, /*voluntary=*/false);
      return;
  }
}

void Tcp::RunEnd(size_t idx) {
  Terminal& term = terminals_[idx];
  if (term.transid == 0) {  // END outside transaction mode: no-op
    ++term.pc;
    Step(idx);
    return;
  }
  term.waiting = true;
  os::CallOptions opt;
  opt.timeout = kVerbTimeout;
  opt.retries = 2;
  Call(Tmp(), tmf::kTmfEnd,
       tmf::EncodeTransidPayload(Transid::Unpack(term.transid)),
       [this, idx](const Status& s, const net::Message&) {
         Terminal& term = terminals_[idx];
         term.waiting = false;
         if (s.ok()) {
           // Updates are now permanent; leave transaction mode.
           term.transid = 0;
           term.restarts = 0;
           ++term.pc;
           ++committed_;
           stats().Incr(m_.commits);
           CheckpointCounters();
           CheckpointTerminal(term);
           Step(idx);
           return;
         }
         // "The END-TRANSACTION request can be rejected because the
         // transaction has been aborted by the system ... the program may
         // be restarted at the BEGIN-TRANSACTION point."
         LOG_DEBUG << "END rejected: " << s.ToString();
         term.transid = 0;
         RestartTransaction(idx);
       },
       opt);
}

void Tcp::RunAbort(size_t idx, bool then_restart, bool voluntary) {
  Terminal& term = terminals_[idx];
  if (term.transid == 0) {
    if (then_restart) {
      RestartTransaction(idx);
    } else {
      FinishIteration(idx, voluntary);
    }
    return;
  }
  term.waiting = true;
  uint64_t transid = term.transid;
  term.transid = 0;
  os::CallOptions opt;
  opt.timeout = kVerbTimeout;
  opt.retries = 2;
  Call(Tmp(), tmf::kTmfAbort,
       tmf::EncodeTransidPayload(Transid::Unpack(transid)),
       [this, idx, then_restart, voluntary](const Status&, const net::Message&) {
         Terminal& term = terminals_[idx];
         term.waiting = false;
         stats().Incr(voluntary ? m_.voluntary_aborts : m_.failed_aborts);
         if (then_restart) {
           RestartTransaction(idx);
         } else {
           // ABORT-TRANSACTION ends the logical transaction attempt; the
           // program completes (unsuccessfully for failures).
           FinishIteration(idx, voluntary);
         }
       },
       opt);
}

void Tcp::RestartTransaction(size_t idx) {
  Terminal& term = terminals_[idx];
  if (term.transid != 0) {
    // Back out first, then restart.
    RunAbort(idx, /*then_restart=*/true, /*voluntary=*/true);
    return;
  }
  if (term.restarts >= config_.restart_limit) {
    stats().Incr(m_.restart_limit_exceeded);
    FinishIteration(idx, /*success=*/false);
    return;
  }
  ++term.restarts;
  ++restarts_;
  stats().Incr(m_.txn_restarts);
  // Resume at BEGIN-TRANSACTION with the checkpointed screen input — the
  // terminal user does not re-enter the screen.
  term.fields = term.begin_snapshot;
  term.pc = term.begin_pc;
  term.transid = 0;
  CheckpointTerminal(term);
  // Growing (capped) randomized backoff lets the conflict — a deadlock
  // partner or a partition — clear before the next attempt. The jitter
  // breaks phase-locked livelock when many terminals restart together.
  SimDuration backoff = Millis(20) * term.restarts;
  if (backoff > Millis(1000)) backoff = Millis(1000);
  backoff = backoff / 2 +
            static_cast<SimDuration>(sim()->RngFor(id().node).Uniform(
                static_cast<uint64_t>(backoff)));
  SetTimer(backoff, [this, idx]() { Step(idx); });
}

void Tcp::FinishIteration(size_t idx, bool success) {
  Terminal& term = terminals_[idx];
  if (success) {
    ++programs_completed_;
    stats().Incr(m_.programs_completed);
  } else {
    ++programs_failed_;
    stats().Incr(m_.programs_failed);
  }
  CheckpointCounters();
  term.pc = 0;
  term.restarts = 0;
  term.transid = 0;
  term.fields.clear();
  term.begin_snapshot.clear();
  if (term.remaining != UINT64_MAX) {
    if (term.remaining > 0) --term.remaining;
    if (term.remaining == 0) {
      term.done = true;
      CheckpointTerminal(term);
      stats().Incr(m_.terminals_done);
      return;
    }
  }
  CheckpointTerminal(term);
  if (config_.think_time > 0) {
    SetTimer(config_.think_time, [this, idx]() { Step(idx); });
  } else {
    SetTimer(Micros(1), [this, idx]() { Step(idx); });
  }
}

// ---------------------------------------------------------------------------
// Checkpointing and takeover
// ---------------------------------------------------------------------------

namespace {
constexpr uint8_t kCkptTerminal = 1;
constexpr uint8_t kCkptCounters = 2;
}  // namespace

void Tcp::CheckpointCounters() {
  if (!HasBackup()) return;
  Bytes out;
  PutFixed8(&out, kCkptCounters);
  PutFixed64(&out, committed_);
  PutFixed64(&out, restarts_);
  PutFixed64(&out, programs_completed_);
  PutFixed64(&out, programs_failed_);
  SendCheckpoint(std::move(out));
}

void Tcp::CheckpointTerminal(const Terminal& term) {
  if (!HasBackup()) return;
  Bytes out;
  PutFixed8(&out, kCkptTerminal);
  PutLengthPrefixed(&out, Slice(term.name));
  PutLengthPrefixed(&out, Slice(term.program_name));
  PutFixed64(&out, term.remaining);
  PutFixed64(&out, term.transid);
  PutVarint64(&out, term.begin_pc);
  PutVarint32(&out, static_cast<uint32_t>(term.restarts));
  PutFixed8(&out, term.done ? 1 : 0);
  PutVarint32(&out, static_cast<uint32_t>(term.begin_snapshot.size()));
  for (const auto& [k, v] : term.begin_snapshot) {
    PutLengthPrefixed(&out, Slice(k));
    PutLengthPrefixed(&out, Slice(v));
  }
  SendCheckpoint(std::move(out));
}

void Tcp::OnCheckpoint(const Slice& delta) {
  Slice in = delta;
  uint8_t type;
  if (!GetFixed8(&in, &type)) return;
  if (type == kCkptCounters) {
    GetFixed64(&in, &committed_);
    GetFixed64(&in, &restarts_);
    GetFixed64(&in, &programs_completed_);
    GetFixed64(&in, &programs_failed_);
    return;
  }
  Terminal term;
  uint8_t done;
  uint32_t restarts, nfields;
  uint64_t begin_pc;
  if (!GetLengthPrefixedString(&in, &term.name) ||
      !GetLengthPrefixedString(&in, &term.program_name) ||
      !GetFixed64(&in, &term.remaining) || !GetFixed64(&in, &term.transid) ||
      !GetVarint64(&in, &begin_pc) || !GetVarint32(&in, &restarts) ||
      !GetFixed8(&in, &done) || !GetVarint32(&in, &nfields)) {
    return;
  }
  term.begin_pc = static_cast<size_t>(begin_pc);
  term.restarts = static_cast<int>(restarts);
  term.done = done != 0;
  for (uint32_t i = 0; i < nfields; ++i) {
    std::string k, v;
    if (!GetLengthPrefixedString(&in, &k) || !GetLengthPrefixedString(&in, &v)) {
      return;
    }
    term.begin_snapshot[k] = v;
  }
  auto pit = config_.programs.find(term.program_name);
  term.program = pit == config_.programs.end() ? nullptr : pit->second;
  // Upsert by terminal name.
  for (auto& existing : terminals_) {
    if (existing.name == term.name) {
      existing = std::move(term);
      return;
    }
  }
  terminals_.push_back(std::move(term));
}

void Tcp::OnTakeover() {
  // Terminals whose transactions were in flight: TMF backs the transaction
  // out (we request it, since the old primary's calls died with it) and the
  // program restarts at BEGIN-TRANSACTION with the checkpointed input.
  for (size_t idx = 0; idx < terminals_.size(); ++idx) {
    Terminal& term = terminals_[idx];
    if (term.done || term.program == nullptr) continue;
    term.waiting = false;
    term.fields = term.begin_snapshot;
    term.pc = term.begin_pc;
    stats().Incr(m_.takeover_restarts);
    if (term.transid != 0) {
      uint64_t transid = term.transid;
      term.transid = 0;
      os::CallOptions opt;
      opt.timeout = kVerbTimeout;
      opt.retries = 2;
      Call(Tmp(), tmf::kTmfAbort,
           tmf::EncodeTransidPayload(Transid::Unpack(transid)),
           [this, idx](const Status&, const net::Message&) { Step(idx); }, opt);
    } else {
      SetTimer(Millis(1), [this, idx]() { Step(idx); });
    }
  }
}

void Tcp::OnBackupAttached() {
  CheckpointCounters();
  for (const auto& term : terminals_) CheckpointTerminal(term);
}

}  // namespace encompass::app
