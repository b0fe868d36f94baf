"""Exception hierarchy shared across the package.

Each class carries the CLI's exit code for it and the label its one
``<label>: <message>`` line on standard error starts with:
ValidationError -> 1 "error" (malformed config, negative seed, an output
directory that cannot be written), BudgetExceededError -> 2 "budget
exceeded", PropertyViolationError -> 3 "property violation".
"""


class ValidationError(ValueError):
    """Bad input: malformed config, violated precondition, inconsistent model."""

    exit_code, label = 1, "error"


class BudgetExceededError(RuntimeError):
    """A state-space or iteration budget was exceeded before the task finished."""

    exit_code, label = 2, "budget exceeded"


class PropertyViolationError(RuntimeError):
    """A property the chain machinery relies on was measurably violated."""

    exit_code, label = 3, "property violation"
