"""Protocol error codes.

Authorities reject bad requests with a coded error rather than an exception
crossing the simulated network; drivers and tests match on ``code``.
"""

from __future__ import annotations


class ProtocolError(Exception):
    def __init__(self, code: str, detail: str = ""):
        self.code = code
        self.detail = detail
        super().__init__(f"{code}: {detail}" if detail else code)


def err(code: str, detail: str = "") -> ProtocolError:
    return ProtocolError(code, detail)


# Committee / certificates
QUORUM_NOT_REACHED = "QuorumNotReached"
BAD_CERTIFICATE = "BadCertificate"

# Accounts
ALREADY_EXISTS = "AlreadyExists"
UNKNOWN_ACCOUNT = "UnknownAccount"
INACTIVE_ACCOUNT = "InactiveAccount"
BAD_AUTH = "BadAuth"
SEQUENCE_MISMATCH = "SequenceMismatch"
ACCOUNT_BUSY = "AccountBusy"
INSUFFICIENT_FUNDS = "InsufficientFunds"
BAD_DERIVED_ID = "BadDerivedId"
SAME_ACCOUNT_SWAP = "SameAccountSwap"
BAD_VALUE = "BadValue"
LOCK_NOT_ALLOWED = "LockNotAllowed"

# Swap consensus
UNKNOWN_INSTANCE = "UnknownInstance"
BAD_LOCK_CERT = "BadLockCert"
NOT_A_LOCKED_OWNER = "NotALockedOwner"
INVALID_CONFIRM = "InvalidConfirm"
ROUND_UNAVAILABLE = "RoundUnavailable"
UNSAFE = "Unsafe"

# Assets
UNDEFINED_EXECUTION = "UndefinedExecution"
COMMITMENT_MISMATCH = "CommitmentMismatch"
INPUT_INACTIVE = "InputInactive"

# State algebra
UNSAFE_REMOTE = "UnsafeRemote"
INVALID_LOCAL_RESULT = "InvalidLocalResult"
INVALID_UPDATE = "InvalidUpdate"

# TPKE / auctions
BAD_THRESHOLD = "BadThreshold"
MESSAGE_OUT_OF_RANGE = "MessageOutOfRange"
WRONG_PHASE = "WrongPhase"
BAD_EVIDENCE = "BadEvidence"
NOT_SELLER = "NotSeller"
BAD_BID_CERT = "BadBidCert"
DECRYPTION_MISMATCH = "DecryptionMismatch"
UNKNOWN_AUCTION = "UnknownAuction"

# Harness
CONFIG_ERROR = "ConfigError"
BOUNDS_TOO_LARGE = "BoundsTooLarge"
