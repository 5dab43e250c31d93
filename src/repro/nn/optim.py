"""The optimiser.

The paper trains with Adam at a learning rate of 1e-4 (Sec. 3.4.4); Adam is
the only optimiser the training engine and the PowerNet baseline use.

The update runs *fused*: the Adam moments live in one flat contiguous buffer
each, the per-step gradients are gathered into a flat workspace, and the
update math is a handful of vectorised numpy expressions over the whole
parameter vector instead of a Python loop over dozens of small arrays.
Every step needs a gradient on every parameter; a parameter without one is
an error, named in the raised ``ValueError``.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.nn.modules import Parameter
from repro.utils import check_positive


class Adam:
    """Adam optimiser [Kingma & Ba, 2015] — the paper's training optimiser.

    The flat layout maps every parameter to a slice of a single contiguous
    vector (in registration order); the first and second moments are flat
    buffers over that layout.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        learning_rate: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        epsilon: float = 1e-8,
    ):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        check_positive(learning_rate, "learning_rate")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        check_positive(epsilon, "epsilon")
        self.learning_rate = learning_rate
        self.betas = betas
        self.epsilon = epsilon
        offsets = np.cumsum([0] + [parameter.size for parameter in self.parameters])
        self._slices = [
            slice(int(start), int(stop)) for start, stop in zip(offsets[:-1], offsets[1:])
        ]
        self._num_scalars = int(offsets[-1])
        self._grad_buffer: Optional[np.ndarray] = None
        self._step_count = 0
        self._first_moment = np.zeros(self._num_scalars, dtype=np.float64)
        self._second_moment = np.zeros(self._num_scalars, dtype=np.float64)

    def zero_grad(self) -> None:
        """Drop every parameter's gradient (sets them to ``None``).

        Setting to ``None`` instead of filling zero arrays means the next
        backward pass *writes* the first gradient contribution rather than
        accumulating into freshly-allocated zeros — no allocation churn on
        the training hot path.
        """
        for parameter in self.parameters:
            parameter.zero_grad()

    def _gather_gradients(self) -> np.ndarray:
        """Copy all gradients into the flat workspace."""
        if self._grad_buffer is None:
            self._grad_buffer = np.empty(self._num_scalars, dtype=np.float64)
        for index, (parameter, piece) in enumerate(zip(self.parameters, self._slices)):
            if parameter.grad is None:
                raise ValueError(
                    f"parameter {index} (shape {parameter.data.shape}) has no gradient; "
                    "every parameter must take part in the loss"
                )
            self._grad_buffer[piece] = parameter.grad.reshape(-1)
        return self._grad_buffer

    def step(self) -> None:
        """Apply one Adam update using the currently accumulated gradients.

        The moment/bias-correction/update math runs as flat vector
        expressions over every parameter at once.

        Raises
        ------
        ValueError
            When some parameter has no gradient (the step changes nothing).
        """
        gradient = self._gather_gradients()
        self._step_count += 1
        beta1, beta2 = self.betas
        bias_correction1 = 1.0 - beta1**self._step_count
        bias_correction2 = 1.0 - beta2**self._step_count
        first, second = self._first_moment, self._second_moment
        first *= beta1
        first += (1.0 - beta1) * gradient
        second *= beta2
        second += (1.0 - beta2) * gradient * gradient
        corrected_first = first / bias_correction1
        corrected_second = second / bias_correction2
        update = self.learning_rate * corrected_first / (np.sqrt(corrected_second) + self.epsilon)
        for parameter, piece in zip(self.parameters, self._slices):
            parameter.data = parameter.data - update[piece].reshape(parameter.data.shape)
