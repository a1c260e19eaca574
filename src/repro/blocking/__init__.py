"""Token blocking (substitute for the paper's LSH blocking — see DESIGN.md)."""
from repro.blocking.token_blocking import (  # noqa: F401
    MODEL_SIDES,
    block_models,
    cross_block,
    self_block,
)
