"""Exception hierarchy shared across the package.

Every error carries a short machine-readable ``category`` so the CLI can
emit a single ``error: <category>: <detail>`` line.
"""


class AdjCkptError(Exception):
    category = "internal"


class InvalidArgumentError(AdjCkptError, ValueError):
    category = "invalid-argument"


class InfeasibleConfigurationError(AdjCkptError):
    category = "infeasible-configuration"


class CapacityError(AdjCkptError):
    """A checkpoint does not fit in the store's byte budget."""

    category = "capacity"

    def __init__(self, required: int, available: int):
        self.required = required
        self.available = available
        super().__init__(
            f"checkpoint needs {required} bytes but only {available} remain in budget"
        )


class MissingCheckpointError(AdjCkptError):
    category = "missing-checkpoint"


class CodecError(AdjCkptError):
    category = "codec"


class CodecDecodeError(CodecError):
    """Corrupted or truncated checkpoint bytes; ``offset`` locates the failure."""

    category = "decode"

    def __init__(self, offset: int, reason: str):
        self.offset = offset
        self.reason = reason
        super().__init__(f"decode failed at byte {offset}: {reason}")


class ExecutionError(AdjCkptError):
    category = "execution"


class ScheduleValidationError(ExecutionError):
    """A schedule action stream violates the execution contract.

    Raised alike by validation and by execution, which share one
    interpreter; ``index`` is the offending action's position.
    """

    category = "validation"

    def __init__(self, index: int, reason: str):
        self.index = index
        self.reason = reason
        super().__init__(f"action {index}: {reason}")
