// FaultInjector: a scripted schedule of named fault actions applied at
// simulated times, with a journal of what fired. Concrete fault effects
// (failing a CPU, cutting a link, dropping a disc path) are provided by the
// OS and network layers as callbacks; this class owns *when* and *what was
// logged*, keeping experiments declarative and reproducible.

#ifndef ENCOMPASS_SIM_FAULT_INJECTOR_H_
#define ENCOMPASS_SIM_FAULT_INJECTOR_H_

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/simulation.h"

namespace encompass::sim {

/// A record of one injected fault.
struct FaultEvent {
  SimTime when;
  std::string description;
};

/// Declarative fault schedule bound to a Simulation.
class FaultInjector {
 public:
  explicit FaultInjector(Simulation* sim) : sim_(sim) {}

  /// Schedules `action` at absolute simulated time `when`, journaling it
  /// under `description` when it fires. Safe to call from inside a firing
  /// action: the injector keeps separate scheduled/fired counters, so
  /// re-entrant scheduling never skews pending().
  void InjectAt(SimTime when, std::string description, std::function<void()> action);

  /// Appends an annotation to the journal at the current simulated time
  /// without scheduling anything. Campaign drivers use this to record
  /// decisions (suppressed faults, recovery completions) next to the faults
  /// themselves. Notes never count toward scheduled()/fired()/pending().
  void Note(std::string description);

  /// Journal of faults that have actually fired (plus Note() annotations),
  /// in canonical firing order. Entries are sorted by the total-order key of
  /// the event that wrote them — not by insertion order, which on the
  /// parallel engine depends on which worker thread got there first. Read it
  /// only while the simulation is quiescent.
  const std::vector<FaultEvent>& journal() const;

  /// Faults ever scheduled / actually fired. fired() is tracked explicitly
  /// rather than derived from journal().size(): the journal also carries
  /// Note() entries, and an action may InjectAt() re-entrantly while its own
  /// journal entry is being written.
  size_t scheduled() const { return scheduled_; }
  size_t fired() const { return fired_; }

  /// Number of scheduled faults that have not yet fired.
  size_t pending() const { return scheduled_ - fired_; }

 private:
  struct Entry {
    EventKey key;      // key of the event that journaled this
    uint64_t ordinal;  // insertion index: orders entries of one event
    FaultEvent e;
  };
  void Append(std::string description);

  Simulation* sim_;
  // Notes (and re-entrant injections) can come from recovery callbacks
  // executing on node loops, concurrently in parallel mode.
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  mutable std::vector<FaultEvent> journal_;  // sorted view, built on read
  size_t scheduled_ = 0;
  size_t fired_ = 0;
};

}  // namespace encompass::sim

#endif  // ENCOMPASS_SIM_FAULT_INJECTOR_H_
