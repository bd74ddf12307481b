"""Exception types shared across the package, the one text-file reader that
turns a file that is not UTF-8 text into a DomainError, and the one writer
of `key = value` echo files."""


class DomainError(ValueError):
    """Raised when an operation's input violates its contract."""


class DegenerateCohortError(DomainError):
    """Raised when a cohort's top-N score spread is too small to normalize by."""


class TrainingDiverged(RuntimeError):
    """Raised when a loss value or parameter goes non-finite during training."""

    def __init__(self, message: str, epoch: int, batch_index: int):
        super().__init__(message)
        self.epoch = epoch
        self.batch_index = batch_index


class ConfigError(ValueError):
    """Raised for malformed configuration files or unknown keys."""


def read_lines(path) -> list[str]:
    """The lines of text file `path`; a DomainError naming it if it is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not a UTF-8 text file: {exc}") from None


def write_echo(path, fields) -> None:
    """One sorted `key = value!r` line per attribute of `fields`, a dataclass instance."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in sorted(vars(fields).items()):
            fh.write(f"{key} = {value!r}\n")
