"""The per-grain PSOLA overlap-add that `corrector._psola_region` replaced,
kept verbatim as the reference its batched form must match byte for byte."""

from unittest import mock

import numpy as np

from notetune import corrector as C


def psola_region(wav, out, norm, a, b, f0_hz, ratio, sr):
    """Overlap-add Hann grains from analysis epochs onto retimed epochs."""
    n = len(wav)
    # analysis marks spaced one local period apart
    marks = []
    t = float(a)
    while t < b:
        marks.append(t)
        period = sr / f0_hz[min(int(t), b - 1) - a]
        t += max(period, 2.0)
    if len(marks) < 2:
        out[a:b] += wav[a:b]
        norm[a:b] += 1.0
        return
    marks = np.asarray(marks)
    s = marks[0]
    while s < b:
        j = int(np.clip(np.searchsorted(marks, s), 0, len(marks) - 1))
        if j > 0 and abs(marks[j - 1] - s) < abs(marks[j] - s):
            j -= 1
        mj = int(round(marks[j]))
        local = min(int(s), b - 1) - a
        period = sr / f0_hz[local]
        L = max(int(round(period)), 2)
        rs = int(round(s))
        lo = max(-L, -mj, -rs)
        hi = min(L + 1, n - mj, n - rs)
        if hi > lo:
            window = np.hanning(2 * L + 1)[lo + L : hi + L]
            out[rs + lo : rs + hi] += wav[mj + lo : mj + hi] * window
            norm[rs + lo : rs + hi] += window
        s += period / ratio[local]


def reference_shift_audio(wav, plan, track):
    """`corrector.shift_audio` with the per-grain overlap-add above."""
    with mock.patch.object(C, "_psola_region", psola_region):
        return C.shift_audio(wav, plan, track)
