"""State-aware greybox fuzzing of a simulated GP-TEE trusted OS."""

__version__ = "0.1.0"
