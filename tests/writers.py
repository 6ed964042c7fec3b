"""File writers for the formats ternroll reads: tests build their input
files with them. The library keeps only ``format_tmx``, which the
``ternarize`` command writes through."""

import json
import struct

from ternroll.matrices import FloatMatrix, TernaryMatrix, format_tmx
from ternroll.network import LayerSpec, NetworkSpec
from ternroll.pipeline import RASTER_MARK, ImageFormatError, ImageStream


def format_network(net: NetworkSpec) -> str:
    def layer_obj(l: LayerSpec) -> dict:
        d = {"kind": l.kind, "in_width": l.in_width, "in_channels": l.in_channels}
        if l.kind in ("Conv", "MaxPool") or l.kernel != 1:
            d["kernel"] = l.kernel
        if l.stride != 1:
            d["stride"] = l.stride
        if l.filters:
            d["filters"] = l.filters
        if l.epsilon:
            d["epsilon"] = l.epsilon
        if l.pixel_interval:
            d["pixel_interval"] = l.pixel_interval
        if l.activation != "None":
            d["activation"] = l.activation
        return d

    obj = {
        "clock_hz": net.clock_hz,
        "act_format": {"total_bits": net.act_format.total_bits, "frac_bits": net.act_format.frac_bits},
        "scale_format": {
            "total_bits": net.scale_format.total_bits,
            "frac_bits": net.scale_format.frac_bits,
        },
        "layers": [layer_obj(l) for l in net.layers],
    }
    return json.dumps(obj, indent=2) + "\n"


def save_network(net: NetworkSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_network(net))


def format_img(img: ImageStream, binary: bool = False) -> bytes:
    head = f"img {img.width} {img.height} {img.channels} {img.frac_bits}"
    flat = img.data.reshape(-1)
    if binary:
        lo, hi = -(1 << 15), (1 << 15) - 1
        if flat.min() < lo or flat.max() > hi:
            raise ImageFormatError("binary img payload requires 16-bit raw values")
        return f"{head} {RASTER_MARK}\n".encode("ascii") + struct.pack(f"<{flat.size}h", *[int(v) for v in flat])
    body = "\n".join(
        " ".join(str(int(v)) for v in img.data[i].reshape(-1)) for i in range(img.height)
    )
    return (head + "\n" + body + "\n").encode("ascii")


def dump_img(img: ImageStream, path: str, binary: bool = False) -> None:
    with open(path, "wb") as f:
        f.write(format_img(img, binary))


def format_fmx(m: FloatMatrix) -> str:
    rows, cols = m.entries.shape
    lines = [f"fmx {rows} {cols}"]
    for r in range(rows):
        lines.append(" ".join(repr(float(v)) for v in m.entries[r]))
    return "\n".join(lines) + "\n"


def dump_fmx(m: FloatMatrix, path: str) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(format_fmx(m))


def dump_tmx(m: TernaryMatrix, path: str) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(format_tmx(m))
