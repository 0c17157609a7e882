"""Exception types shared across the toolkit."""


class CalibrationError(Exception):
    """Base class for all sensorcal errors."""


class SchemaMismatchError(CalibrationError):
    """Point-cloud channel schema does not match the projection config."""


class EmptyCloudError(CalibrationError):
    """An operation that needs at least one point received an empty cloud."""


class MissingPairError(CalibrationError):
    """A required pairwise transform is absent from a prediction set."""


class NoOverlapError(CalibrationError):
    """Every optimizer start produced rasters with no usable overlap."""


class LengthMismatchError(CalibrationError):
    """Parallel input lists have different lengths."""


class EmptyListError(CalibrationError):
    """An aggregation over zero elements was requested."""


class ParseError(CalibrationError):
    """A calibration text file row could not be parsed."""


class NonRigidError(CalibrationError):
    """A loaded rotation block is not orthonormal within tolerance."""


class SizeMismatchError(CalibrationError):
    """A binary cloud file length is not a multiple of the record size, or a
    depth image does not have the size of its camera."""


class DegenerateSceneError(CalibrationError):
    """A generated scene left a sensor with too few returns."""
