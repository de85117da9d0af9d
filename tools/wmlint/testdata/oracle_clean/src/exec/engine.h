#ifndef FIXTURE_EXEC_ENGINE_H_
#define FIXTURE_EXEC_ENGINE_H_

#include "exec/exec_context.h"

namespace fixture {

// Reference-sibling pattern: the oracle is a distinct function.
int Compute(int input, const ExecContext& exec);
int ComputeReference(int input);

// Serial-overload pattern: the serial overload is the oracle.
int Shard(int input, const ExecContext& exec);
int Shard(int input);

// Defaulted-context pattern: `Blend(input)` is the serial overload.
int Blend(int input, const ExecContext& exec = ExecContext{});

}  // namespace fixture

#endif  // FIXTURE_EXEC_ENGINE_H_
