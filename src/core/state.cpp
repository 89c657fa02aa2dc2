#include "core/state.hpp"

#include <limits>
#include <memory>
#include <stdexcept>

#include "gp/genome.hpp"

namespace dpr::core::state {

void Writer::put_frame(const can::CanFrame& frame) {
  put(frame.id());
  const auto data = frame.data();
  out_.u8(static_cast<std::uint8_t>(data.size()));
  for (const std::uint8_t byte : data) out_.u8(byte);
}

void Reader::get_frame(can::CanFrame& frame) {
  can::CanId id;
  get(id);
  const std::uint8_t dlc = in_.u8();
  if (dlc > 8) throw std::runtime_error("checkpoint: bad frame dlc");
  std::uint8_t data[8];
  for (std::uint8_t i = 0; i < dlc; ++i) data[i] = in_.u8();
  frame = can::CanFrame(id, std::span<const std::uint8_t>(data, dlc));
}

void Writer::put_genome(const gp::Genome& genome) {
  for (const gp::Gene& gene : genome) {
    out_.u8(static_cast<std::uint8_t>(gene.op));
    out_.f64(gene.value);
    out_.i64(gene.var);
  }
}

void Reader::get_genome(gp::Genome& genome) {
  genome.clear();
  // Unfilled child slots of every ancestor of the next gene, so its size
  // is that gene's depth; the genome is complete when none is left open.
  std::vector<int> open;
  do {
    if (open.size() > 64) {
      throw std::runtime_error("checkpoint: expression too deep");
    }
    const std::uint8_t op = in_.u8();
    if (op > static_cast<std::uint8_t>(gp::Op::kInv)) {
      throw std::runtime_error("checkpoint: bad expression opcode");
    }
    gp::Gene gene;
    gene.op = static_cast<gp::Op>(op);
    gene.value = in_.f64();
    // Range-check the on-disk i64 before narrowing it: 2^32 would wrap to
    // X0 and slip past the per-result check below.
    const std::int64_t var = in_.i64();
    if (var < 0 || var > std::numeric_limits<std::int32_t>::max()) {
      throw std::runtime_error("checkpoint: variable index out of range");
    }
    gene.var = static_cast<std::int32_t>(var);
    genome.push_back(gene);
    if (!open.empty()) --open.back();
    if (const int n_children = gp::arity(gene.op); n_children > 0) {
      open.push_back(n_children);
    }
    while (!open.empty() && open.back() == 0) open.pop_back();
  } while (!open.empty());
}

namespace {

// A region's marker in a video frame: stored in full, or equal to the
// previous frame's region at the same index.
constexpr std::uint8_t kRegionStored = 0;
constexpr std::uint8_t kRegionRepeated = 1;

// The text a repeated region copies (Reader::copy_budget_).
std::size_t copied_text(const cps::TextRegion& region) {
  return region.truth.size();
}
std::size_t copied_text(const cps::IconRegion& region) {
  return region.icon_identity.size();
}

}  // namespace

void Writer::put_video(const cps::VideoRecording& video) {
  out_.u64(video.frames.size());
  const cps::ScreenImage* previous = nullptr;
  for (const cps::Screenshot& frame : video.frames) {
    // Binds every member, as the field lists do: a member added to
    // Screenshot or ScreenImage stops the build here until the codec
    // carries it.
    const auto& [timestamp, image] = frame;
    const auto& [width, height, text_regions, icon_regions] = *image;
    (*this)(timestamp, width, height);
    put_regions(text_regions, previous ? &previous->text_regions : nullptr);
    put_regions(icon_regions, previous ? &previous->icon_regions : nullptr);
    previous = image.get();
  }
}

template <class Region>
void Writer::put_regions(const std::vector<Region>& regions,
                         const std::vector<Region>* previous) {
  out_.u64(regions.size());
  for (std::size_t i = 0; i < regions.size(); ++i) {
    if (previous && i < previous->size() && (*previous)[i] == regions[i]) {
      out_.u8(kRegionRepeated);
    } else {
      out_.u8(kRegionStored);
      put(regions[i]);
    }
  }
}

void Reader::get_video(cps::VideoRecording& video) {
  video.frames.clear();
  const cps::ScreenImage* previous = nullptr;
  for (std::uint64_t n = in_.u64(); n > 0; --n) {
    cps::Screenshot& frame = video.frames.emplace_back();
    auto image = std::make_shared<cps::ScreenImage>();
    auto& [width, height, text_regions, icon_regions] = *image;
    (*this)(frame.timestamp, width, height);
    get_regions(text_regions, previous ? &previous->text_regions : nullptr);
    get_regions(icon_regions, previous ? &previous->icon_regions : nullptr);
    previous = image.get();
    frame.image = std::move(image);
  }
}

template <class Region>
void Reader::get_regions(std::vector<Region>& regions,
                         const std::vector<Region>* previous) {
  regions.clear();
  for (std::uint64_t n = in_.u64(); n > 0; --n) {
    const std::size_t i = regions.size();
    const std::uint8_t marker = in_.u8();
    if (marker == kRegionStored) {
      get(regions.emplace_back());
    } else if (marker != kRegionRepeated) {
      throw std::runtime_error("checkpoint: bad video region marker");
    } else if (!previous) {
      throw std::runtime_error("checkpoint: video region repeated on the "
                               "first frame");
    } else if (i >= previous->size()) {
      throw std::runtime_error("checkpoint: video region repeated past the "
                               "previous frame's regions");
    } else {
      const std::size_t text = copied_text((*previous)[i]);
      if (text > copy_budget_) {
        throw std::runtime_error("checkpoint: video copies past its "
                                 "expansion budget");
      }
      copy_budget_ -= text;
      regions.push_back((*previous)[i]);
    }
  }
}

void Reader::check(const correlate::Dataset& dataset) {
  // correlate::build_dataset emits only points with exactly n_vars
  // operands, and the GP and regression fitters index them on that.
  for (const auto& point : dataset.points) {
    if (point.xs.size() != dataset.n_vars) {
      throw std::runtime_error("checkpoint: dataset point width != n_vars");
    }
  }
}

void Reader::check(const gp::GpResult& result) {
  // A restored genome will be evaluated against n_vars operands; reject
  // stray variable references here instead of letting a bad tree surface
  // later as an evaluation throw.
  for (const gp::Gene& gene : result.best) {
    if (gene.op == gp::Op::kVar &&
        static_cast<std::uint64_t>(gene.var) >= result.n_vars) {
      throw std::runtime_error("checkpoint: variable index out of range");
    }
  }
}

std::uint64_t options_digest(const CampaignOptions& options) {
  Writer w;
  w(options);
  return util::fnv1a64(w.data());
}

}  // namespace dpr::core::state
