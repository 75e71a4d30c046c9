#include "render/quality.hpp"

#include <algorithm>
#include <array>

#include "render/volume_renderer.hpp"

namespace spnerf {

namespace {

// Rung table. Cost priors come from rays x samples: rung 1 halves the
// samples per ray (~0.55 with per-ray overhead), rung 2 additionally
// quarters the ray count (~0.2), rung 3 quarters the samples and takes a
// sixteenth of the rays (~0.08). They only seed the governor's cost model;
// observed wall times refine them per scene.
constexpr std::array<RungSpec, kQualityRungCount> kRungs{{
    /*kFull=*/{1.0f, 0.0f, 1, 1.0},
    /*kCoarse=*/{2.0f, 1e-2f, 1, 0.55},
    /*kHalf=*/{2.0f, 1e-2f, 2, 0.2},
    /*kPreview=*/{4.0f, 5e-2f, 4, 0.08},
}};

}  // namespace

const char* QualityRungName(QualityRung rung) {
  switch (rung) {
    case QualityRung::kFull: return "full";
    case QualityRung::kCoarse: return "coarse";
    case QualityRung::kHalf: return "half";
    case QualityRung::kPreview: return "preview";
  }
  return "?";
}

const RungSpec& RungSpecFor(QualityRung rung) {
  const auto i = static_cast<std::size_t>(rung);
  return kRungs[i < kQualityRungCount ? i : 0];
}

RenderOptions ApplyRung(const RenderOptions& base, QualityRung rung) {
  if (rung == QualityRung::kFull) return base;
  const RungSpec& spec = RungSpecFor(rung);
  RenderOptions opt = base;
  opt.step_size = base.step_size * spec.step_scale;
  opt.termination_transmittance = std::max(
      base.termination_transmittance, spec.min_termination_transmittance);
  return opt;
}

}  // namespace spnerf
