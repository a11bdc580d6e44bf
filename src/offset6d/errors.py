"""Exception types shared across the toolkit."""


class Offset6DError(ValueError):
    """Base class for all toolkit errors."""


class InvalidDepthError(Offset6DError):
    """Depth value is non-positive or non-finite where a valid depth is required."""


class EmptyObjectError(Offset6DError):
    """No foreground pixel with valid depth is available."""


class MissingPoseError(Offset6DError):
    """An operation needs a ground-truth pose that the observation does not carry."""


class ModeMismatchError(Offset6DError):
    """Encoding/target mode is incompatible with the requested operation."""


class DegenerateConfigurationError(Offset6DError):
    """Point configuration does not determine the pose (rank-deficient system)."""


class EmptyInputError(Offset6DError):
    """A nonempty collection was required."""


class FormatError(Offset6DError):
    """Malformed or refused file content: a PGM, PLY, table or CSV that does
    not parse, and an experiment config or dataset manifest with a missing,
    unknown or refused key.  The message names the file, and the key where
    one value is at fault.

    ``offset`` is the byte offset of the first offending byte when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
