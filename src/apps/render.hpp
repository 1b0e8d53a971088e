// RENDER — terrain-rendering (ray identification) I/O skeleton (§4.2, §6).
//
// Hybrid control/data-parallel structure: a single gateway node reads the
// multi-hundred-megabyte terrain data set with explicitly prefetched
// asynchronous reads (3 MB then 1.5 MB requests, Figure 6), scatters it to
// the renderer group, then runs a read-render-write loop: a small view-
// coordinate read, a parallel render, and one ~1 MB frame write per view
// (Figure 7) — to per-frame output files on disk, or to the HiPPi frame
// buffer in production use (§6.2).
//
// Default parameters reproduce Tables 3-4 exactly in operation counts
// (1,504 ops: 121 reads / 436 async reads + iowaits / 300 writes / 4 seeks /
// 106 opens / 101 closes); volumes are within 0.01 % of the paper's.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "io/file.hpp"

namespace paraio::apps {

struct RenderConfig {
  std::uint32_t renderers = 128;

  // Initialization: the Mars (Viking) terrain data set in four files.
  std::uint32_t large_reads_3mb = 124;
  std::uint32_t large_reads_15mb = 312;
  std::uint64_t size_3mb = 3 * 1024 * 1024;
  std::uint64_t size_15mb = 1536 * 1024;
  /// Outstanding async reads the gateway keeps in flight (its explicit
  /// prefetch depth, §6.2).
  std::uint32_t read_ahead = 2;

  // View control file.
  std::uint32_t header_reads = 21;
  std::uint64_t view_read_size = 70;

  // Rendering loop.
  std::uint32_t frames = 100;
  std::uint64_t frame_bytes = 640ULL * 512 * 3;  // 640x512, 24-bit color
  std::uint32_t small_writes_per_frame = 2;      // frame header + trailer
  std::uint64_t small_write_size = 7;
  double frame_compute = 2.0;  ///< parallel render time per frame (seconds)
  /// Production mode: stream frames to the HiPPi frame buffer instead of
  /// writing per-frame files (§6.2).  Table 3/4 runs use false.
  bool to_framebuffer = false;

  std::uint64_t seed = 0x4E4D34;

  [[nodiscard]] std::uint64_t data_set_bytes() const {
    return large_reads_3mb * size_3mb + large_reads_15mb * size_15mb;
  }
  /// The gateway occupies the node id right after the renderer group.
  [[nodiscard]] io::NodeId gateway_node() const { return renderers; }
};

class Render {
 public:
  /// Throws std::invalid_argument unless there is at least one renderer
  /// and the machine has a compute node for each, plus the gateway.
  Render(hw::Machine& machine, io::FileSystem& fs, RenderConfig config = {});

  /// Creates the four terrain files and the view control file (run against
  /// the uninstrumented file system).
  sim::Task<> stage(io::FileSystem& bare_fs);

  /// Runs initialization + the full rendering loop.
  sim::Task<> run();

  [[nodiscard]] const PhaseLog& phases() const noexcept { return phases_; }
  [[nodiscard]] const RenderConfig& config() const noexcept { return config_; }

  /// Installs a collective checkpoint hook over the renderer group, invoked
  /// by every renderer at each frame boundary (the gateway does not
  /// participate).  Null detaches.
  void set_checkpoint(CheckpointHook* hook) noexcept { checkpoint_ = hook; }

  static constexpr const char* kData[4] = {"/render/mars.0", "/render/mars.1",
                                           "/render/mars.2", "/render/mars.3"};
  static constexpr const char* kViews = "/render/views.ctl";
  static constexpr const char* kFramePrefix = "/render/frame.";

 private:
  sim::Task<> read_data_file(const std::string& path, std::uint32_t reads_3mb,
                             std::uint32_t reads_15mb);

  hw::Machine& machine_;
  io::FileSystem& fs_;
  RenderConfig config_;
  PhaseLog phases_;
  sim::Rng rng_;
  /// Terrain-file handles kept open across the whole run; deliberately
  /// never closed (the paper's 106 opens vs 101 closes).
  std::vector<io::FilePtr> data_files_;
  CheckpointHook* checkpoint_ = nullptr;
};

}  // namespace paraio::apps
