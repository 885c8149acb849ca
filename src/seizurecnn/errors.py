"""The toolkit's seven exception types. The command line exits 2 on a
ConfigError; 3 on a DataError or one of its subclasses, one per kind of
input file: ClipFormatError, ManifestError, LayoutError; and 1 on the base
SeizureCnnError or a TrainingDivergedError. Each message names its case.
"""


class SeizureCnnError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(SeizureCnnError):
    """Invalid or inconsistent run configuration."""


class DataError(SeizureCnnError):
    """Problem with input data: files, manifests, layouts, or labels."""


class ClipFormatError(DataError):
    """Clip file violates the binary format contract."""


class ManifestError(DataError):
    """Malformed or self-inconsistent data manifest."""


class LayoutError(DataError):
    """Electrode layout missing, invalid, or unsuitable for a topology."""


class TrainingDivergedError(SeizureCnnError):
    """Loss became non-finite during optimization."""
