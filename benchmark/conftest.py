"""Self-tests of the benchmark import coxbrick from the source tree, as a run does."""

import run

run.load_program()
