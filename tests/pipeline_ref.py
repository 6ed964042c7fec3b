"""Per-pixel references for the array code in ``ternroll.pipeline``.

``WindowBuffer`` models the hardware's line buffers and shift registers;
``window_stream`` pushes an image through it one pixel a cycle, as the
hardware does; ``max_pool`` takes each output pixel's window max in a
Python loop.
"""

from collections import deque

import numpy as np

from ternroll import ImageStream
from ternroll.pipeline import _check_window


class WindowBuffer:
    """Line-buffer and shift-register model of the streaming patch generator.

    One pixel enters per push; kernel-1 line buffers delay previous rows by
    the image width so the same column of the previous rows appears together
    with the incoming pixel. After the warm-up of floor(N/2) rows plus
    floor(N/2) pixels, one patch per push leaves in raster order; border taps
    are switched to zero based on the centre coordinate.
    """

    def __init__(self, width: int, height: int, channels: int, kernel: int) -> None:
        _check_window(width, height, kernel)
        self.width, self.height, self.channels, self.kernel = width, height, channels, kernel
        self.pad = kernel // 2
        self._lines: list[deque] = [deque() for _ in range(kernel - 1)]
        self._window: deque = deque(maxlen=kernel)  # columns, newest right
        self._pushes = 0
        self.last_column_taps: tuple | None = None

    def push(self, px: np.ndarray) -> np.ndarray | None:
        """Feed one pixel (or a zero flush pixel); maybe emit a patch."""
        zero = np.zeros(self.channels, dtype=np.int64)
        taps = [np.asarray(px, dtype=np.int64)]
        cur = taps[0]
        for line in self._lines:
            line.append(cur)
            cur = line.popleft() if len(line) > self.width else zero
            taps.append(cur)
        self.last_column_taps = tuple(taps)
        self._window.append(tuple(reversed(taps)))  # column, top row first
        n = self._pushes
        self._pushes += 1
        c = n - (self.pad * self.width + self.pad)
        if c < 0 or c >= self.width * self.height:
            return None
        i, j = divmod(c, self.width)
        patch = np.zeros((self.kernel, self.kernel, self.channels), dtype=np.int64)
        for q in range(self.kernel):
            for r in range(self.kernel):
                src_i = i + q - self.pad
                src_j = j + r - self.pad
                if 0 <= src_i < self.height and 0 <= src_j < self.width:
                    patch[q, r] = self._window[r][q]
        return patch.reshape(-1)

    def total_pushes(self) -> int:
        """Pushes needed to emit every patch: the image plus the warm-up."""
        return self.width * self.height + self.pad * self.width + self.pad


def window_stream(img: ImageStream, kernel: int):
    """All H*W zero-padded patches of the image in raster order."""
    buf = WindowBuffer(img.width, img.height, img.channels, kernel)
    pixels = list(img.data.reshape(-1, img.channels))
    zero = np.zeros(img.channels, dtype=np.int64)
    for n in range(buf.total_pushes()):
        patch = buf.push(pixels[n] if n < len(pixels) else zero)
        if patch is not None:
            yield patch


def max_pool(img: ImageStream, k: int, n: int) -> np.ndarray:
    """(H/n, W/n, channels) max over k x k windows anchored at stride n,
    truncated at the bottom and right edges."""
    oh, ow = img.height // n, img.width // n
    out = np.zeros((oh, ow, img.channels), dtype=np.int64)
    for i in range(oh):
        for j in range(ow):
            win = img.data[i * n : min(i * n + k, img.height), j * n : min(j * n + k, img.width)]
            out[i, j] = win.reshape(-1, img.channels).max(axis=0)
    return out
