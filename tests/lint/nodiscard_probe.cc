// Compile-only probe for the [[nodiscard]] contract on awaitables.
//
// Every awaitable factory and sim::Task is lazy: calling one and dropping
// the result does nothing.  The compiler rejects that shape by type, so
// each line marked `// probe` below must draw exactly one -Wunused-result
// warning when this file is compiled with -fsyntax-only
// (tests/lint/nodiscard_probe.cmake checks that).  A missing warning means
// someone removed a [[nodiscard]].  This file is never linked.
#include "io/outcome.hpp"
#include "pfs/turn_gate.hpp"
#include "sim/channel.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/task_group.hpp"

namespace paraio {

sim::Task<> plain_task();
sim::Task<io::IoOutcome> outcome_task();

void discard_everything(sim::Engine& engine) {
  sim::Mutex mutex(engine);
  sim::Semaphore semaphore(engine, 1);
  sim::Event event(engine);
  sim::Barrier barrier(engine, 2);
  sim::Latch latch(engine, 1);
  sim::TaskGroup group(engine);
  sim::Channel<int> channel(engine, 1);
  pfs::TurnGate gate(engine, 2);

  engine.delay(1.0);  // probe
  engine.yield();  // probe
  mutex.lock();  // probe
  semaphore.acquire();  // probe
  event.wait();  // probe
  barrier.arrive_and_wait();  // probe
  latch.wait();  // probe
  group.join();  // probe
  channel.send(1);  // probe
  channel.recv();  // probe
  gate.await_turn(0);  // probe
  plain_task();  // probe
  outcome_task();  // probe
}

}  // namespace paraio
