#include "exec/engine.h"

namespace fixture {

// Exercises every oracle so the contract check sees them referenced.
void IdentityHarness() {
  ComputeReference(7);
  Shard(7);
  Blend(7);
}

}  // namespace fixture
