#include "tmf/commit_acceptor.h"

#include <memory>

#include "audit/audit_trail.h"
#include "common/logging.h"

namespace encompass::tmf {

// Orphan sweep cadence (also each sweep query's deadline) and the age at
// which an instance counts as orphaned; one recovery-round call's deadline.
constexpr SimDuration kSweepInterval = Seconds(1);
constexpr SimDuration kSweepAge = Seconds(4);
constexpr SimDuration kRoundCallTimeout = Seconds(2);

AcceptOutcome CommitAcceptorLog::Accept(
    const Transid& t, uint16_t voter, uint32_t ballot, Disposition value,
    const std::vector<net::NodeId>& participants, SimTime now) {
  if (SealedValue(t.Pack()) != nullptr) return AcceptOutcome::kSealed;
  CommitAcceptorEntry& e = At(t, voter);
  if (e.born == 0) e.born = now;
  if (e.has_value && e.accepted_ballot == ballot && e.value == value) {
    return AcceptOutcome::kDuplicate;
  }
  if (ballot < e.promised) return AcceptOutcome::kRejected;
  e.promised = ballot;
  e.accepted_ballot = ballot;
  e.has_value = true;
  e.value = value;
  if (!participants.empty()) e.participants = participants;
  return AcceptOutcome::kAccepted;
}

void CommitAcceptor::OnPairAttach() {
  m_prepares_ = stats().RegisterCounter("acceptor.prepares");
  m_accepts_ = stats().RegisterCounter("acceptor.accepts");
  m_rejections_ = stats().RegisterCounter("acceptor.rejections");
  m_votes_ = stats().RegisterCounter("acceptor.votes");
  m_duplicate_votes_ = stats().RegisterCounter("tmf.acceptor_duplicate_votes");
  m_reclaims_ = stats().RegisterCounter("acceptor.reclaims");
  m_sealed_answers_ = stats().RegisterCounter("acceptor.sealed_answers");
  m_log_instances_ = stats().RegisterHistogram("tmf.acceptor_log_instances");
  if (IsPrimary()) ArmSweep();
}

void CommitAcceptor::OnRequest(const net::Message& msg) {
  // One-way vote and reclaim traffic first: it carries no reply path, so a
  // backup member just drops it (the primary's log is the durable one).
  if (msg.tag == kTmfPaxosVote) {
    if (IsPrimary()) HandleVote(msg);
    return;
  }
  if (msg.tag == kTmfPaxosReclaim) {
    if (IsPrimary()) HandleReclaim(msg);
    return;
  }
  if (!IsPrimary()) {
    Reply(msg, Status::Unavailable("backup acceptor"));
    return;
  }
  switch (msg.tag) {
    case kTmfPaxosPrepare:
      HandlePrepare(msg);
      break;
    case kTmfPaxosAccept:
      HandleAccept(msg);
      break;
    default:
      Reply(msg, Status::InvalidArgument("unknown acceptor tag"));
  }
}

void CommitAcceptor::HandlePrepare(const net::Message& msg) {
  Transid t;
  uint32_t ballot;
  uint16_t voter;
  if (!DecodePaxosPrepare(Slice(msg.payload), &t, &ballot, &voter)) {
    Reply(msg, Status::InvalidArgument("malformed prepare"));
    return;
  }
  stats().Incr(m_prepares_);
  if (const Disposition* s = config_.log->SealedValue(t.Pack())) {
    // The instance was reclaimed: the transaction's final disposition is
    // already everywhere. Answer with the seal instead of resurrecting an
    // empty instance the proposer could steer to a contradictory choice.
    stats().Incr(m_sealed_answers_);
    PaxosPrepareReply r;
    r.sealed = true;
    r.sealed_value = *s;
    Reply(msg, Status::Ok(), EncodePaxosPrepareReply(r));
    return;
  }
  CommitAcceptorEntry& e = config_.log->At(t, voter);
  if (e.born == 0) e.born = sim()->Now();
  PaxosPrepareReply r;
  r.granted = ballot > e.promised;
  if (r.granted) e.promised = ballot;
  r.promised = e.promised;
  r.accepted_ballot = e.accepted_ballot;
  r.has_value = e.has_value;
  r.value = e.value;
  r.participants = e.participants;
  if (!r.granted) {
    stats().Incr(m_rejections_);
    Reply(msg, Status::Ok(), EncodePaxosPrepareReply(r));
    return;
  }
  ReplyForced(msg, EncodePaxosPrepareReply(r));
}

void CommitAcceptor::HandleAccept(const net::Message& msg) {
  Transid t;
  uint32_t ballot;
  Disposition value;
  uint16_t voter;
  std::vector<net::NodeId> participants;
  if (!DecodePaxosAccept(Slice(msg.payload), &t, &ballot, &value, &voter,
                         &participants)) {
    Reply(msg, Status::InvalidArgument("malformed accept"));
    return;
  }
  stats().Incr(m_accepts_);
  PaxosAcceptReply r;
  const AcceptOutcome outcome = config_.log->Accept(
      t, voter, ballot, value, participants, sim()->Now());
  if (outcome == AcceptOutcome::kSealed) {
    stats().Incr(m_sealed_answers_);
    r.sealed = true;
    r.sealed_value = *config_.log->SealedValue(t.Pack());
  } else {
    // A replayed accept (a home takeover re-running its round) is answered
    // idempotently: accepted, without a second force.
    if (outcome == AcceptOutcome::kDuplicate) stats().Incr(m_duplicate_votes_);
    if (outcome == AcceptOutcome::kRejected) stats().Incr(m_rejections_);
    r.accepted = outcome != AcceptOutcome::kRejected;
    r.promised = config_.log->At(t, voter).promised;
  }
  if (outcome == AcceptOutcome::kAccepted) {
    ReplyForced(msg, EncodePaxosAcceptReply(r));
  } else {
    Reply(msg, Status::Ok(), EncodePaxosAcceptReply(r));
  }
}

void CommitAcceptor::HandleVote(const net::Message& msg) {
  Transid t;
  uint32_t ballot;
  Disposition value;
  uint16_t voter;
  std::vector<net::NodeId> participants;
  if (!DecodePaxosAccept(Slice(msg.payload), &t, &ballot, &value, &voter,
                         &participants) ||
      voter == 0) {
    return;  // one-way: malformed votes are dropped
  }
  stats().Incr(m_votes_);
  switch (config_.log->Accept(t, voter, ballot, value, participants,
                              sim()->Now())) {
    case AcceptOutcome::kSealed:  // decided and reclaimed: nobody tallies
      stats().Incr(m_sealed_answers_);
      return;
    case AcceptOutcome::kDuplicate:
      // A respawned participant replays its vote: re-ack (the first ack may
      // have died with the home's old incarnation) without a second force.
      stats().Incr(m_duplicate_votes_);
      QueueVoteAck(t, voter);
      return;
    case AcceptOutcome::kRejected:  // usurped by a recovery proposer
      stats().Incr(m_rejections_);
      return;
    case AcceptOutcome::kAccepted:
      break;
  }
  SetTimer(audit::kDiscForceLatency,
           [this, t, voter]() { QueueVoteAck(t, voter); });
}

void CommitAcceptor::HandleReclaim(const net::Message& msg) {
  std::vector<std::pair<uint64_t, Disposition>> txns;
  if (!DecodePaxosReclaim(Slice(msg.payload), &txns)) return;
  for (const auto& [packed, d] : txns) {
    config_.log->Seal(packed, d);
    stats().Incr(m_reclaims_);
  }
}

void CommitAcceptor::QueueVoteAck(const Transid& t, uint16_t voter) {
  pending_acks_[t.Pack()].insert(voter);
  if (!ack_flush_armed_) {
    ack_flush_armed_ = true;
    // Delay 0: fires this same instant, after every force completion
    // scheduled for it — so votes forced together ride one ack message.
    SetTimer(0, [this]() { FlushVoteAcks(); });
  }
}

void CommitAcceptor::FlushVoteAcks() {
  ack_flush_armed_ = false;
  auto pending = std::move(pending_acks_);
  pending_acks_.clear();
  for (const auto& [packed, voters] : pending) {
    Transid t = Transid::Unpack(packed);
    PaxosVoteAck ack;
    ack.transid = t;
    ack.acceptor_index = config_.index;
    ack.voters.assign(voters.begin(), voters.end());
    // Stamp the transaction on the one-way send so per-transaction message
    // accounting attributes it.
    set_current_transid(packed);
    Send(net::Address(t.home_node, "$TMP"), kTmfPaxosVoteAck,
         EncodePaxosVoteAck(ack));
    set_current_transid(0);
  }
}

void CommitAcceptor::ArmSweep() {
  SetTimer(kSweepInterval, [this]() {
    if (IsPrimary()) Sweep();
    ArmSweep();
  });
}

void CommitAcceptor::Sweep() {
  CommitAcceptorLog& log = *config_.log;
  stats().Record(m_log_instances_, static_cast<int64_t>(log.entries.size()));
  const SimTime now = sim()->Now();
  // Distinct aged transactions; the home answers per transaction.
  uint64_t last = 0;
  bool have_last = false;
  for (const auto& [key, e] : log.entries) {
    const uint64_t packed = key.first;
    if (have_last && packed == last) continue;
    last = packed;
    have_last = true;
    if (e.born == 0 || now - e.born < kSweepAge) continue;
    if (!sweep_in_flight_.insert(packed).second) continue;
    Transid t = Transid::Unpack(packed);
    os::CallOptions opt;
    opt.timeout = kSweepInterval;
    Call(net::Address(t.home_node, "$TMP"), kTmfResolveTxn,
         EncodeResolveTxn(t, /*recovering=*/false),
         [this, packed](const Status& s, const net::Message& reply) {
           sweep_in_flight_.erase(packed);
           Disposition d;
           if (s.ok() && DecodeDisposition(Slice(reply.payload), &d) &&
               d != Disposition::kUnknown) {
             config_.log->Seal(packed, d);
             stats().Incr(m_reclaims_);
           }
         },
         opt);
  }
}

void CommitAcceptor::ReplyForced(const net::Message& msg, Bytes payload) {
  // The log mutation above is already applied — the log object IS the
  // durable medium — so a takeover mid-force loses only the reply; the
  // caller times out and retries against state that never regresses.
  net::Message request = msg;
  SetTimer(audit::kDiscForceLatency,
           [this, request, payload = std::move(payload)]() mutable {
             Reply(request, Status::Ok(), std::move(payload));
           });
}

namespace {

/// Tally of one phase of a round over n acceptors.
struct PhaseTally {
  int yes = 0;
  int responses = 0;
  uint32_t best_accepted_ballot = 0;
  Disposition adopted = Disposition::kUnknown;
  bool have_adopted = false;
  int adopted_count = 0;  ///< replies reporting best_accepted_ballot
  std::vector<net::NodeId> participants;
  bool fired = false;
};

/// What one Paxos round learned.
struct PaxosRoundOutcome {
  Disposition value = Disposition::kUnknown;
  /// The instance was already reclaimed: `value` is the transaction's final
  /// sealed disposition and no further voter instances need settling.
  bool sealed = false;
  /// Participant set revealed by the home-voter instance's accepted value.
  std::vector<net::NodeId> participants;
};

/// Runs one abort-proposing Paxos round for instance (t, voter) at ballot
/// MakePaxosBallot(attempt, proc's node): a prepare phase, then the accept
/// phase over every acceptor. `done` fires exactly once: kCommitted /
/// kAborted when that value reached a majority of acceptors at this ballot
/// (the chosen value — possibly adopted from an earlier proposer), kUnknown
/// when the round failed (majority unreachable or outpaced by a higher
/// ballot). A sealed reply from any acceptor short-circuits the round with
/// the final transaction disposition.
void RunRound(os::Process* proc,
              const std::vector<std::pair<net::NodeId, std::string>>& endpoints,
              const Transid& t, uint16_t voter, uint32_t attempt,
              std::function<void(const PaxosRoundOutcome&)> done) {
  const int n = static_cast<int>(endpoints.size());
  const int majority = n / 2 + 1;
  if (n == 0) {
    done(PaxosRoundOutcome{});
    return;
  }
  const uint32_t ballot = MakePaxosBallot(attempt, proc->node()->id());
  os::CallOptions opt;
  opt.timeout = kRoundCallTimeout;

  auto start_accept = [proc, endpoints, t, ballot, voter, n, majority, opt,
                       done](Disposition value,
                             std::vector<net::NodeId> participants) {
    auto tally = std::make_shared<PhaseTally>();
    for (const auto& [node, name] : endpoints) {
      proc->Call(net::Address(node, name), kTmfPaxosAccept,
                 EncodePaxosAccept(t, ballot, value, voter, participants),
                 [tally, n, majority, value, participants, done](
                     const Status& s, const net::Message& reply) {
                   if (tally->fired) return;
                   ++tally->responses;
                   PaxosAcceptReply r;
                   if (s.ok() &&
                       DecodePaxosAcceptReply(Slice(reply.payload), &r)) {
                     if (r.sealed) {
                       tally->fired = true;
                       done(PaxosRoundOutcome{r.sealed_value, true, {}});
                       return;
                     }
                     if (r.accepted) ++tally->yes;
                   }
                   if (tally->yes >= majority) {
                     // The value is chosen: a majority holds it durably.
                     tally->fired = true;
                     done(PaxosRoundOutcome{value, false, participants});
                   } else if (tally->responses == n) {
                     tally->fired = true;
                     done(PaxosRoundOutcome{});
                   }
                 },
                 opt);
    }
  };

  auto tally = std::make_shared<PhaseTally>();
  for (const auto& [node, name] : endpoints) {
    proc->Call(
        net::Address(node, name), kTmfPaxosPrepare,
        EncodePaxosPrepare(t, ballot, voter),
        [tally, n, majority, start_accept, done](
            const Status& s, const net::Message& reply) {
          if (tally->fired) return;
          ++tally->responses;
          PaxosPrepareReply r;
          if (s.ok() && DecodePaxosPrepareReply(Slice(reply.payload), &r)) {
            if (r.sealed) {
              tally->fired = true;
              done(PaxosRoundOutcome{r.sealed_value, true, {}});
              return;
            }
            if (r.granted) {
              ++tally->yes;
              if (r.has_value &&
                  r.accepted_ballot >= tally->best_accepted_ballot) {
                if (r.accepted_ballot == tally->best_accepted_ballot &&
                    tally->have_adopted) {
                  ++tally->adopted_count;
                } else {
                  tally->adopted_count = 1;
                }
                tally->best_accepted_ballot = r.accepted_ballot;
                tally->adopted = r.value;
                tally->have_adopted = true;
                if (!r.participants.empty()) {
                  tally->participants = r.participants;
                }
              } else if (!r.participants.empty() &&
                         tally->participants.empty()) {
                tally->participants = r.participants;
              }
            }
          }
          if (tally->yes >= majority) {
            tally->fired = true;
            if (tally->adopted_count >= majority) {
              // The prepare quorum itself proves the value chosen — a
              // majority reports the same accepted ballot (a ballot holds
              // one value, so same ballot at a majority = chosen). No
              // accept phase needed: the resolver is a learner here.
              done(PaxosRoundOutcome{tally->adopted, false,
                                     tally->participants});
              return;
            }
            // A promise quorum stands; propose the value of the highest
            // accepted ballot it revealed, else abort.
            start_accept(tally->have_adopted ? tally->adopted
                                             : Disposition::kAborted,
                         tally->participants);
          } else if (tally->responses == n) {
            tally->fired = true;
            done(PaxosRoundOutcome{});
          }
        },
        opt);
  }
}

}  // namespace

void ResolvePaxosOutcome(
    os::Process* proc,
    const std::vector<std::pair<net::NodeId, std::string>>& endpoints,
    const Transid& t, uint32_t attempt, std::function<void(Disposition)> done) {
  RunRound(
      proc, endpoints, t, t.home_node, attempt,
      [proc, endpoints, t, attempt, done](const PaxosRoundOutcome& o) {
        if (o.sealed || o.value != Disposition::kCommitted) {
          done(o.value);
          return;
        }
        // Chosen Prepared on the home-voter instance. The transaction
        // committed iff every participant's instance also chose Prepared;
        // settle them in parallel (still proposing abort — a participant
        // that never voted must not be allowed to later).
        if (o.participants.empty()) {
          done(Disposition::kCommitted);
          return;
        }
        struct VoterTally {
          int remaining = 0;
          bool unknown = false;
          bool fired = false;
        };
        auto tally = std::make_shared<VoterTally>();
        tally->remaining = static_cast<int>(o.participants.size());
        for (net::NodeId p : o.participants) {
          RunRound(
              proc, endpoints, t, p, attempt,
              [tally, done](const PaxosRoundOutcome& vo) {
                if (tally->fired) return;
                if (vo.sealed) {
                  tally->fired = true;
                  done(vo.value);
                  return;
                }
                if (vo.value == Disposition::kAborted) {
                  // One voter's instance chose Aborted: commit is
                  // impossible, the transaction aborted.
                  tally->fired = true;
                  done(Disposition::kAborted);
                  return;
                }
                if (vo.value == Disposition::kUnknown) tally->unknown = true;
                if (--tally->remaining == 0) {
                  tally->fired = true;
                  done(tally->unknown ? Disposition::kUnknown
                                      : Disposition::kCommitted);
                }
              });
        }
      });
}

}  // namespace encompass::tmf
