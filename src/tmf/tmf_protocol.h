// TMF wire protocol: client-to-TMP verbs, TMP-to-TMP distributed commit
// messages (critical-response and safe-delivery classes), and the backout
// request.

#ifndef ENCOMPASS_TMF_TMF_PROTOCOL_H_
#define ENCOMPASS_TMF_TMF_PROTOCOL_H_

#include <vector>

#include "common/coding.h"
#include "common/result.h"
#include "common/transid.h"
#include "net/message.h"

namespace encompass::tmf {

/// TMF message tags.
enum TmfTag : uint32_t {
  // Client verbs (to the local TMP).
  kTmfBegin = net::kTagTmf + 1,   ///< -> reply carries the new packed transid
  kTmfEnd = net::kTagTmf + 2,     ///< commit; reply when ended (or Aborted)
  kTmfAbort = net::kTagTmf + 3,   ///< voluntary abort; reply when backed out
  kTmfEnsureRemote = net::kTagTmf + 4,  ///< register a remote participant

  // TMP-to-TMP: critical-response class (destination must be accessible and
  // must reply affirmatively for the state change to proceed).
  kTmfRemoteBegin = net::kTagTmf + 5,  ///< broadcast transid active at dest
  kTmfPhase1 = net::kTagTmf + 6,       ///< force audit; prepare to commit

  // TMP-to-TMP: safe-delivery class (delivery guaranteed eventually; the
  /// reply only acknowledges receipt).
  kTmfPhase2 = net::kTagTmf + 7,       ///< commit decided: release locks
  kTmfAbortTxn = net::kTagTmf + 8,     ///< abort decided: back out

  // Utilities (the TMF operator-utility surface the paper's manual
  // override procedure uses).
  kTmfStatus = net::kTagTmf + 9,            ///< disposition query
  kTmfForceDisposition = net::kTagTmf + 10, ///< manual in-doubt override
  kBackoutTxn = net::kTagTmf + 11,          ///< TMP -> BACKOUTPROCESS
  kTmfListTxns = net::kTagTmf + 12,         ///< enumerate tracked txns

  // TMP-to-TMP: ROLLFORWARD / in-doubt negotiation. Sent to the transaction's
  // home TMP; the reply carries a Disposition (Fixed8). With the `recovering`
  // flag set the sender is a reloading node whose volatile phase-1 state is
  // lost, and the home resolves a still-active transaction by aborting it
  // (the recovering participant can no longer honor its phase-1 promise).
  // Without the flag it is a live in-doubt refresh and the home only reports
  // what its MAT already proves.
  kTmfResolveTxn = net::kTagTmf + 13,

  // Paxos Commit (Gray & Lamport, "Consensus on Transaction Commit"), sent
  // to the CommitAcceptor pairs under `TmpConfig::commit_protocol = kPaxos`.
  // Every participant runs its own consensus instance, keyed (transid, voter
  // node), and sends its phase-2a prepared-vote directly to the acceptors —
  // one-way, no reply — so the commit point is one WAN delay from the
  // participants' prepares instead of the home MAT force. Acceptors ack
  // durably-forced votes straight to the home TMP (bundled per
  // transaction), and the home reclaims decided instances once phase 2
  // landed everywhere. Recovery proposers settle stuck instances with
  // prepare/accept rounds.
  kTmfPaxosPrepare = net::kTagTmf + 14,  ///< phase 1a: promise a ballot
  kTmfPaxosAccept = net::kTagTmf + 15,   ///< phase 2a: accept a value
  kTmfPaxosVote = net::kTagTmf + 16,     ///< one-way voter -> acceptor
  kTmfPaxosVoteAck = net::kTagTmf + 17,  ///< one-way acceptor -> home TMP
  kTmfPaxosReclaim = net::kTagTmf + 18,  ///< one-way home -> acceptor (GC)
};

/// One row of a kTmfListTxns reply.
struct TxnListEntry {
  Transid transid;
  uint8_t state = 0;       ///< TxnState
  bool is_home = false;
  net::NodeId parent = 0;
};

/// Encodes a kTmfListTxns reply payload.
inline Bytes EncodeTxnList(const std::vector<TxnListEntry>& entries) {
  Bytes out;
  PutVarint32(&out, static_cast<uint32_t>(entries.size()));
  for (const auto& e : entries) {
    PutFixed64(&out, e.transid.Pack());
    PutFixed8(&out, e.state);
    PutFixed8(&out, e.is_home ? 1 : 0);
    PutFixed16(&out, e.parent);
  }
  return out;
}

/// Decodes a kTmfListTxns reply payload.
inline Result<std::vector<TxnListEntry>> DecodeTxnList(const Slice& payload) {
  Slice in = payload;
  uint32_t n;
  if (!GetVarint32(&in, &n)) return DecodeError("txn list count");
  // Each entry occupies 12 bytes: a count larger than the remaining payload
  // is malformed (and must not drive a giant allocation).
  if (static_cast<uint64_t>(n) * 12 > in.size()) {
    return DecodeError("txn list count exceeds payload");
  }
  std::vector<TxnListEntry> entries;
  entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TxnListEntry e;
    uint64_t packed;
    uint8_t home;
    if (!GetFixed64(&in, &packed) || !GetFixed8(&in, &e.state) ||
        !GetFixed8(&in, &home) || !GetFixed16(&in, &e.parent)) {
      return DecodeError("txn list entry");
    }
    e.transid = Transid::Unpack(packed);
    e.is_home = home != 0;
    entries.push_back(e);
  }
  return entries;
}

/// Dispositions reported by kTmfStatus.
enum class Disposition : uint8_t {
  kAborted = 0,
  kCommitted = 1,
  kUnknown = 2,
};

inline Bytes EncodeTransidPayload(const Transid& t) {
  Bytes out;
  PutFixed64(&out, t.Pack());
  return out;
}

inline Result<Transid> DecodeTransidPayload(const Slice& payload) {
  Slice in = payload;
  uint64_t packed;
  if (!GetFixed64(&in, &packed)) return DecodeError("transid payload");
  return Transid::Unpack(packed);
}

inline Bytes EncodeEnsureRemote(const Transid& t, net::NodeId dest) {
  Bytes out;
  PutFixed64(&out, t.Pack());
  PutFixed16(&out, dest);
  return out;
}

inline bool DecodeEnsureRemote(const Slice& payload, Transid* t,
                               net::NodeId* dest) {
  Slice in = payload;
  uint64_t packed;
  uint16_t node;
  if (!GetFixed64(&in, &packed) || !GetFixed16(&in, &node)) return false;
  *t = Transid::Unpack(packed);
  *dest = node;
  return true;
}

inline Bytes EncodeResolveTxn(const Transid& t, bool recovering) {
  Bytes out;
  PutFixed64(&out, t.Pack());
  PutFixed8(&out, recovering ? 1 : 0);
  return out;
}

inline bool DecodeResolveTxn(const Slice& payload, Transid* t,
                             bool* recovering) {
  Slice in = payload;
  uint64_t packed;
  uint8_t flag;
  if (!GetFixed64(&in, &packed) || !GetFixed8(&in, &flag)) return false;
  *t = Transid::Unpack(packed);
  *recovering = flag != 0;
  return true;
}

/// Reply payload of kTmfResolveTxn (and kTmfStatus): one Disposition byte.
inline Bytes EncodeDisposition(Disposition d) {
  Bytes out;
  PutFixed8(&out, static_cast<uint8_t>(d));
  return out;
}

inline bool DecodeDisposition(const Slice& payload, Disposition* d) {
  Slice in = payload;
  uint8_t disp;
  if (!GetFixed8(&in, &disp) || disp > 2) return false;
  *d = static_cast<Disposition>(disp);
  return true;
}

inline Bytes EncodeForceDisposition(const Transid& t, Disposition d) {
  Bytes out;
  PutFixed64(&out, t.Pack());
  PutFixed8(&out, static_cast<uint8_t>(d));
  return out;
}

inline bool DecodeForceDisposition(const Slice& payload, Transid* t,
                                   Disposition* d) {
  Slice in = payload;
  uint64_t packed;
  uint8_t disp;
  if (!GetFixed64(&in, &packed) || !GetFixed8(&in, &disp)) return false;
  *t = Transid::Unpack(packed);
  *d = static_cast<Disposition>(disp);
  return true;
}

// --- Paxos Commit wire formats -------------------------------------------

/// Ballot numbers order proposers: `(attempt << 16) | proposer_node_id`.
/// Every voter's prepared-vote is cast at the home's attempt-0 ballot (it
/// rides the phase-1 fan-out, Gray & Lamport's "free" prepare phase); every
/// recovery proposer
/// starts at attempt >= 1, so a usurping ballot always outranks the home's
/// initial one, and the node id in the low bits keeps concurrent proposers'
/// ballots distinct.
inline uint32_t MakePaxosBallot(uint32_t attempt, net::NodeId proposer) {
  return (attempt << 16) | static_cast<uint32_t>(proposer);
}

/// Phase-1 payload under paxos: the plain transid payload plus the home's
/// initial ballot. Plain 2PC keeps the 8-byte transid payload, and
/// DecodeTransidPayload ignores trailing bytes, so participants of either
/// protocol decode both forms.
inline Bytes EncodePhase1Paxos(const Transid& t, uint32_t ballot) {
  Bytes out = EncodeTransidPayload(t);
  PutFixed32(&out, ballot);
  return out;
}

/// Extracts the piggybacked ballot from a phase-1 payload; false when the
/// payload is the plain 2PC form.
inline bool DecodePhase1Ballot(const Slice& payload, uint32_t* ballot) {
  Slice in = payload;
  uint64_t packed;
  return GetFixed64(&in, &packed) && GetFixed32(&in, ballot);
}

/// Every participant runs its own consensus instance, keyed by (transid,
/// voter node).
inline Bytes EncodePaxosPrepare(const Transid& t, uint32_t ballot,
                                uint16_t voter) {
  Bytes out;
  PutFixed64(&out, t.Pack());
  PutFixed32(&out, ballot);
  PutFixed16(&out, voter);
  return out;
}

inline bool DecodePaxosPrepare(const Slice& payload, Transid* t,
                               uint32_t* ballot, uint16_t* voter) {
  Slice in = payload;
  uint64_t packed;
  if (!GetFixed64(&in, &packed) || !GetFixed32(&in, ballot) ||
      !GetFixed16(&in, voter)) {
    return false;
  }
  *t = Transid::Unpack(packed);
  return true;
}

/// Phase 1b: the acceptor's promise state after processing a prepare.
struct PaxosPrepareReply {
  bool granted = false;          ///< ballot > previous promise
  uint32_t promised = 0;         ///< the acceptor's promise, post-request
  uint32_t accepted_ballot = 0;  ///< ballot of the accepted value (0 = none)
  bool has_value = false;
  Disposition value = Disposition::kUnknown;
  /// Participant set carried by the home's accepted vote (resolvers learn
  /// which voter instances to settle from it).
  std::vector<net::NodeId> participants;
  /// The instance was garbage-collected after the transaction's final
  /// disposition landed everywhere; `sealed_value` is that final
  /// transaction disposition (not a per-voter value).
  bool sealed = false;
  Disposition sealed_value = Disposition::kUnknown;
};

inline Bytes EncodePaxosPrepareReply(const PaxosPrepareReply& r) {
  Bytes out;
  PutFixed8(&out, r.granted ? 1 : 0);
  PutFixed32(&out, r.promised);
  PutFixed32(&out, r.accepted_ballot);
  PutFixed8(&out, r.has_value ? 1 : 0);
  PutFixed8(&out, static_cast<uint8_t>(r.value));
  // The extension block is appended only when it carries information, so a
  // plain promise (no participants, not sealed) stays 11 bytes.
  if (r.sealed || !r.participants.empty()) {
    PutFixed8(&out, r.sealed ? 1 : 0);
    PutFixed8(&out, static_cast<uint8_t>(r.sealed_value));
    PutFixed8(&out, static_cast<uint8_t>(r.participants.size()));
    for (net::NodeId p : r.participants) PutFixed16(&out, p);
  }
  return out;
}

inline bool DecodePaxosPrepareReply(const Slice& payload,
                                    PaxosPrepareReply* r) {
  Slice in = payload;
  uint8_t granted, has_value, value;
  if (!GetFixed8(&in, &granted) || !GetFixed32(&in, &r->promised) ||
      !GetFixed32(&in, &r->accepted_ballot) || !GetFixed8(&in, &has_value) ||
      !GetFixed8(&in, &value) || value > 2) {
    return false;
  }
  r->granted = granted != 0;
  r->has_value = has_value != 0;
  r->value = static_cast<Disposition>(value);
  r->participants.clear();
  r->sealed = false;
  r->sealed_value = Disposition::kUnknown;
  if (!in.empty()) {
    uint8_t sealed, sealed_value, npart;
    if (!GetFixed8(&in, &sealed) || !GetFixed8(&in, &sealed_value) ||
        !GetFixed8(&in, &npart)) {
      return false;
    }
    r->sealed = sealed != 0;
    if (r->sealed) {
      if (sealed_value > 1) return false;  // a seal is always a decision
      r->sealed_value = static_cast<Disposition>(sealed_value);
    }
    for (uint8_t i = 0; i < npart; ++i) {
      uint16_t p;
      if (!GetFixed16(&in, &p)) return false;
      r->participants.push_back(p);
    }
  }
  // An accepted value is always a decision; kUnknown never travels as one.
  return !r->has_value || r->value != Disposition::kUnknown;
}

/// Also the kTmfPaxosVote payload: a vote is a phase-2a accept sent
/// one-way. Both carry the voter's instance key and — on the home's vote
/// only — the participant set the resolvers will need.
inline Bytes EncodePaxosAccept(const Transid& t, uint32_t ballot,
                               Disposition value, uint16_t voter,
                               const std::vector<net::NodeId>& participants) {
  Bytes out;
  PutFixed64(&out, t.Pack());
  PutFixed32(&out, ballot);
  PutFixed8(&out, static_cast<uint8_t>(value));
  PutFixed16(&out, voter);
  PutFixed8(&out, static_cast<uint8_t>(participants.size()));
  for (net::NodeId p : participants) PutFixed16(&out, p);
  return out;
}

inline bool DecodePaxosAccept(const Slice& payload, Transid* t,
                              uint32_t* ballot, Disposition* value,
                              uint16_t* voter,
                              std::vector<net::NodeId>* participants) {
  Slice in = payload;
  uint64_t packed;
  uint8_t v, npart;
  if (!GetFixed64(&in, &packed) || !GetFixed32(&in, ballot) ||
      !GetFixed8(&in, &v) || v > 1 || !GetFixed16(&in, voter) ||
      !GetFixed8(&in, &npart)) {
    return false;
  }
  *t = Transid::Unpack(packed);
  *value = static_cast<Disposition>(v);
  participants->clear();
  for (uint8_t i = 0; i < npart; ++i) {
    uint16_t p;
    if (!GetFixed16(&in, &p)) return false;
    participants->push_back(p);
  }
  return true;
}

/// Phase 2b: accepted iff ballot >= the acceptor's promise.
struct PaxosAcceptReply {
  bool accepted = false;
  uint32_t promised = 0;
  /// See PaxosPrepareReply::sealed.
  bool sealed = false;
  Disposition sealed_value = Disposition::kUnknown;
};

inline Bytes EncodePaxosAcceptReply(const PaxosAcceptReply& r) {
  Bytes out;
  PutFixed8(&out, r.accepted ? 1 : 0);
  PutFixed32(&out, r.promised);
  if (r.sealed) {
    PutFixed8(&out, 1);
    PutFixed8(&out, static_cast<uint8_t>(r.sealed_value));
  }
  return out;
}

inline bool DecodePaxosAcceptReply(const Slice& payload, PaxosAcceptReply* r) {
  Slice in = payload;
  uint8_t accepted;
  if (!GetFixed8(&in, &accepted) || !GetFixed32(&in, &r->promised)) {
    return false;
  }
  r->accepted = accepted != 0;
  r->sealed = false;
  r->sealed_value = Disposition::kUnknown;
  if (!in.empty()) {
    uint8_t sealed, sealed_value;
    if (!GetFixed8(&in, &sealed) || !GetFixed8(&in, &sealed_value) ||
        (sealed != 0 && sealed_value > 1)) {
      return false;
    }
    r->sealed = sealed != 0;
    if (r->sealed) r->sealed_value = static_cast<Disposition>(sealed_value);
  }
  return true;
}

/// kTmfPaxosVoteAck: an acceptor tells the home TMP which voters' votes it
/// has durably forced — bundled, so votes forced at the same instant cost
/// one message.
struct PaxosVoteAck {
  Transid transid;
  uint8_t acceptor_index = 0;  ///< k of $ACCEPT.<k>: the home's tally bit
  std::vector<uint16_t> voters;
};

inline Bytes EncodePaxosVoteAck(const PaxosVoteAck& a) {
  Bytes out;
  PutFixed64(&out, a.transid.Pack());
  PutFixed8(&out, a.acceptor_index);
  PutFixed8(&out, static_cast<uint8_t>(a.voters.size()));
  for (uint16_t v : a.voters) PutFixed16(&out, v);
  return out;
}

inline bool DecodePaxosVoteAck(const Slice& payload, PaxosVoteAck* a) {
  Slice in = payload;
  uint64_t packed;
  uint8_t n;
  if (!GetFixed64(&in, &packed) || !GetFixed8(&in, &a->acceptor_index) ||
      !GetFixed8(&in, &n)) {
    return false;
  }
  a->transid = Transid::Unpack(packed);
  a->voters.clear();
  for (uint8_t i = 0; i < n; ++i) {
    uint16_t v;
    if (!GetFixed16(&in, &v)) return false;
    a->voters.push_back(v);
  }
  return true;
}

/// kTmfPaxosReclaim: the home garbage-collects decided instances once the
/// final disposition landed on every participant. Batched — one message
/// reclaims every transaction that drained since the last flush — and
/// deliberately sent without a transid stamp (it belongs to no single
/// transaction's message budget).
inline Bytes EncodePaxosReclaim(
    const std::vector<std::pair<uint64_t, Disposition>>& txns) {
  Bytes out;
  PutVarint32(&out, static_cast<uint32_t>(txns.size()));
  for (const auto& [packed, d] : txns) {
    PutFixed64(&out, packed);
    PutFixed8(&out, static_cast<uint8_t>(d));
  }
  return out;
}

inline bool DecodePaxosReclaim(
    const Slice& payload, std::vector<std::pair<uint64_t, Disposition>>* txns) {
  Slice in = payload;
  uint32_t n;
  if (!GetVarint32(&in, &n)) return false;
  if (static_cast<uint64_t>(n) * 9 > in.size()) return false;
  txns->clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t packed;
    uint8_t d;
    if (!GetFixed64(&in, &packed) || !GetFixed8(&in, &d) || d > 1) {
      return false;
    }
    txns->emplace_back(packed, static_cast<Disposition>(d));
  }
  return true;
}

}  // namespace encompass::tmf

#endif  // ENCOMPASS_TMF_TMF_PROTOCOL_H_
