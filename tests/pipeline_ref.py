"""Per-pixel references for the array code in ``ternroll.pipeline``.

``window_stream`` pushes an image through the ``WindowBuffer`` line-buffer
model one pixel a cycle, as the hardware does; ``max_pool`` takes each
output pixel's window max in a Python loop.
"""

import numpy as np

from ternroll import ImageStream, WindowBuffer


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
