"""The training loss.

The paper trains with an L1 loss over the predicted noise map (Eq. 3); it is
the only loss the training engine and the PowerNet baseline use.
"""

from __future__ import annotations

from repro.nn.tensor import Tensor, as_tensor


def l1_loss(prediction: Tensor, target) -> Tensor:
    """Mean absolute error — the paper's training loss (Eq. 3)."""
    return (prediction - as_tensor(target)).abs().mean()
