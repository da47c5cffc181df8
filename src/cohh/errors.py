"""The two error bases, one per CLI exit code.

`InvariantFailure` (exit 1): a check the program runs on its own results
failed, such as d.d != 0.  `InvalidInput` (exit 2): the input is refused,
with the reason.  Every refusal subclasses `InvalidInput`.  This module
imports nothing, so the CLI can catch both without loading the engine.
"""


class InvariantFailure(Exception):
    """A checked invariant does not hold; the CLI exits 1."""


class InvalidInput(ValueError):
    """Input the program refuses; the CLI reports it as an input error (exit 2)."""
