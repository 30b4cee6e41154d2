"""Exception hierarchy shared by all pipeline stages.

The CLI maps these onto process exit codes: validation problems exit 2,
file/format problems exit 3, numeric failures exit 4.
"""


class UqsegError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ValidationError(UqsegError):
    """Invalid inputs, shapes, configuration, or contract violations."""

    exit_code = 2


class ArrayFormatError(UqsegError):
    """Problems reading or writing array files."""

    exit_code = 3


class NumericError(UqsegError):
    """Non-finite values produced where finite ones are required."""

    exit_code = 4


class StageError(UqsegError):
    """A pipeline stage failed; names the stage and the case, exits as the cause does."""

    def __init__(self, stage: str, cause: BaseException, case_id=None):
        where = f" for case {case_id}" if case_id is not None else ""
        super().__init__(f"stage '{stage}' failed{where}: {cause}")
        self.stage = stage
        self.exit_code = getattr(cause, "exit_code", 3)
