"""Signal-wise SystemVerilog assertion generation via tree self-refine search."""

__version__ = "0.1.0"


def read_text(path: str, what: str, error: type[Exception]) -> str:
    """The UTF-8 text of an input file. A file that cannot be opened or is
    not UTF-8 raises `error`, the caller's own error type, naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as err:
        raise error(f"cannot read {what} file {path!r}: {err}") from err
