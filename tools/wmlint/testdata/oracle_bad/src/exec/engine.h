#ifndef FIXTURE_EXEC_ENGINE_H_
#define FIXTURE_EXEC_ENGINE_H_

#include "exec/exec_context.h"

namespace fixture {

// Parallel-only entry point: no `ComputeReference` sibling and no serial
// overload — nothing can certify its output.
int Compute(int input, const ExecContext& exec);

// Has a serial overload, but neither name is referenced from tests/.
int Shard(int input, const ExecContext& exec);
int Shard(int input);

// A default on a later parameter leaves the context required: still no
// serial overload.
int Mix(int input, const ExecContext& exec, int rounds = 1);

}  // namespace fixture

#endif  // FIXTURE_EXEC_ENGINE_H_
