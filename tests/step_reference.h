// The Step() reference for engine-identity tests and the E10 bench.
// Simulation::Step() fires the one event with the globally least
// (time, origin, seq) key; the round loop must fire the same events in the
// same order at every thread count, so runs are byte-compared against one
// Step()-driven run.

#ifndef ENCOMPASS_TESTS_STEP_REFERENCE_H_
#define ENCOMPASS_TESTS_STEP_REFERENCE_H_

#include "sim/simulation.h"

namespace encompass::sim::testing {

/// The `workers` value that selects the Step()-driven run. A drive, not a
/// thread count: the Simulation it constructs equals workers=1's, so only
/// AdvanceTo and Drain tell the two runs apart — drive through them alone.
inline constexpr int kStepReference = 0;

/// RunUntil(deadline), after firing (for kStepReference) the same events
/// one at a time through Step(); RunUntil then only advances the clocks.
inline void AdvanceTo(Simulation& sim, int workers, SimTime deadline) {
  while (workers == kStepReference && sim.Step(deadline)) {
  }
  sim.RunUntil(deadline);
}

/// Run() to quiescence, after Step()ing there for kStepReference.
inline void Drain(Simulation& sim, int workers) {
  while (workers == kStepReference && sim.Step()) {
  }
  sim.Run();
}

}  // namespace encompass::sim::testing

#endif  // ENCOMPASS_TESTS_STEP_REFERENCE_H_
