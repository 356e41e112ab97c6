from .store import PartitionState, StateHost, StateHostActor, WATERMARK_MAX  # noqa: F401
