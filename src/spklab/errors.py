"""Exception types shared across the package, the one text-file reader that
turns a file that is not UTF-8 text into a DomainError, and the one text-file
writer, which makes a file's directory as it writes the file, so an output
directory comes into being with the first file written into it."""

import os


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


def write_text(path, text: str) -> None:
    """Write `text` to `path` as UTF-8, first making `path`'s directory if it is missing."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_echo(path, fields) -> None:
    """One sorted `key = value!r` line per attribute of `fields`, a dataclass instance."""
    write_text(path, "".join(f"{key} = {value!r}\n" for key, value in sorted(vars(fields).items())))
