"""Exception types shared across the package.

Protocol outcomes that a party is expected to handle (password failure,
channel integrity failure, abort) are exceptions here so that callers can
not silently ignore them; plain bad input is ConfigurationError.
"""


class ItstoreError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(ItstoreError):
    """Invalid parameters or scenario config; message names the field path."""


class ProtocolError(ItstoreError):
    """A party violated the protocol (bad indices, malformed request...)."""


class ImproperRequestError(ProtocolError):
    """Malformed reconstruction request: a holder subset of the wrong size,
    or a round-id list that names an id twice or is not in canonical
    runs."""


class KeySupplyError(ItstoreError):
    """Key or randomness demand exceeds what the supply can deliver."""


class SingleUseError(ItstoreError):
    """A one-time seed, pad, or precomputed tuple was used twice."""


class PrecomputationExhaustedError(ProtocolError):
    """A holder is asked to spend a masking round it does not hold live:
    one never stocked, or one already spent or retired."""


class ChannelIntegrityError(ItstoreError):
    """Authentication tag mismatch on a received envelope."""


class ReplayError(ChannelIntegrityError):
    """Envelope sequence number did not increase."""


class TamperDetectedError(ItstoreError):
    """Persisted store bytes fail their hash-chain check."""


class PasswordFailureError(ItstoreError):
    """Reconstruction MAC check failed: wrong password or corrupt shares."""
