from .lancelite import Table, FragmentMeta, stage_fragments  # noqa: F401
