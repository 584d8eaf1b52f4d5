"""Exception types shared across the package, and the text reader that
turns an unreadable file or bytes that are not UTF-8 into one of them.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, DivergenceError -> 4.
"""


class XmtcError(Exception):
    """Base class for package errors."""


class ConfigError(XmtcError):
    """Invalid configuration: bad hyperparameter, unknown key, malformed value."""


class StalenessError(ConfigError):
    """Artifacts built under different configurations were mixed."""


class DataError(XmtcError):
    """Invalid or missing input data: corpora, catalogs, artifact files."""


class DivergenceError(XmtcError):
    """Training produced a non-finite loss or parameter."""


class ShapeError(ValueError):
    """Tensor operands have incompatible shapes."""


class GradTapeError(RuntimeError):
    """Gradient tape misuse, e.g. backward called twice on one tape."""


def read_text(path, error: type[XmtcError] = DataError) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read or bytes that
    are not UTF-8 raise ``error`` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None
