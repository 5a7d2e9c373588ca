#include "sim/fault_injector.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/exec_context.h"

namespace encompass::sim {

void FaultInjector::InjectAt(SimTime when, std::string description,
                             std::function<void()> action) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++scheduled_;
  }
  // Fault actions mutate cross-node state (crash a node, cut a link), so
  // they always run on the global loop, which executes only while every
  // node loop is paused — and before any node's events at the same instant.
  sim_->AtOn(0, when, [this, description = std::move(description),
                       action = std::move(action)]() {
    LOG_INFO << "fault @" << sim_->Now() << "us: " << description;
    // Count the firing and journal it *before* running the action: the
    // action may re-entrantly schedule (or Note) further faults, and the
    // books must already reflect this firing when it does.
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++fired_;
    }
    Append(description);
    action();
  });
}

void FaultInjector::Note(std::string description) {
  Append(std::move(description));
}

void FaultInjector::Append(std::string description) {
  // Stamp the entry with the writing event's total-order key so journal()
  // can present one canonical order at every worker count. Outside event
  // execution (setup code), fall back to a time-only key, which sorts
  // before any event's entries at the same instant.
  const internal::ExecContext* ec = internal::Exec();
  const EventKey key = (ec != nullptr && ec->sim == sim_)
                           ? ec->key
                           : EventKey{sim_->Now(), 0, 0};
  std::lock_guard<std::mutex> lk(mu_);
  entries_.push_back(
      Entry{key, static_cast<uint64_t>(entries_.size()),
            FaultEvent{sim_->Now(), std::move(description)}});
}

const std::vector<FaultEvent>& FaultInjector::journal() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Keys are unique per event; the ordinal only orders the entries one
  // event wrote (insertion order on a single thread, so deterministic).
  std::vector<const Entry*> sorted;
  sorted.reserve(entries_.size());
  for (const Entry& e : entries_) sorted.push_back(&e);
  std::sort(sorted.begin(), sorted.end(), [](const Entry* a, const Entry* b) {
    if (a->key < b->key) return true;
    if (b->key < a->key) return false;
    return a->ordinal < b->ordinal;
  });
  journal_.clear();
  journal_.reserve(sorted.size());
  for (const Entry* e : sorted) journal_.push_back(e->e);
  return journal_;
}

}  // namespace encompass::sim
