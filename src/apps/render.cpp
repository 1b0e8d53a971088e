#include "apps/render.hpp"

#include <deque>
#include <stdexcept>
#include <vector>

#include "sim/channel.hpp"
#include "sim/task_group.hpp"

namespace paraio::apps {

namespace {

io::OpenOptions unix_create() {
  io::OpenOptions o;
  o.mode = io::AccessMode::kUnix;
  o.create = true;
  return o;
}

io::OpenOptions unix_read() {
  io::OpenOptions o;
  o.mode = io::AccessMode::kUnix;
  return o;
}

}  // namespace

Render::Render(hw::Machine& machine, io::FileSystem& fs, RenderConfig config)
    : machine_(machine), fs_(fs), config_(config), rng_(config.seed) {
  if (config.renderers == 0) {
    throw std::invalid_argument("RENDER: needs at least one renderer");
  }
  // The renderers, plus the gateway node right after them.
  require_nodes("RENDER", std::uint64_t{config.renderers} + 1, machine);
}

sim::Task<> Render::stage(io::FileSystem& bare_fs) {
  const std::uint32_t n3 = config_.large_reads_3mb / 4;
  const std::uint32_t n15 = config_.large_reads_15mb / 4;
  const io::NodeId gw = config_.gateway_node();
  for (const char* path : kData) {
    auto f = co_await bare_fs.open(gw, path, unix_create());
    // One header stripe (skipped by the gateway's seek) plus the payload.
    co_await f->write(config_.view_read_size);
    co_await f->write(n3 * config_.size_3mb + n15 * config_.size_15mb);
    co_await f->close();
  }
  auto views = co_await bare_fs.open(gw, kViews, unix_create());
  co_await views->write((config_.header_reads + config_.frames) *
                        config_.view_read_size);
  co_await views->close();
}

sim::Task<> Render::read_data_file(const std::string& path,
                                   std::uint32_t reads_3mb,
                                   std::uint32_t reads_15mb) {
  const io::NodeId gw = config_.gateway_node();
  auto f = co_await fs_.open(gw, path, unix_read());
  co_await f->seek(config_.view_read_size);  // skip the header stripe

  // Explicit prefetch: keep `read_ahead` asynchronous reads outstanding —
  // the paper's gateway issues large asynchronous requests and overlaps
  // them, achieving ~9.5 MB/s (§6.2).
  std::deque<io::AsyncOp> inflight;
  const std::uint32_t total = reads_3mb + reads_15mb;
  for (std::uint32_t r = 0; r < total; ++r) {
    const std::uint64_t size =
        r < reads_3mb ? config_.size_3mb : config_.size_15mb;
    inflight.push_back(co_await f->read_async(size));
    if (inflight.size() >= config_.read_ahead) {
      (void)co_await f->iowait(std::move(inflight.front()));
      inflight.pop_front();
    }
  }
  while (!inflight.empty()) {
    (void)co_await f->iowait(std::move(inflight.front()));
    inflight.pop_front();
  }
  // The data files stay open for the whole run (closes: 101 vs 106 opens).
  data_files_.push_back(std::move(f));
}

sim::Task<> Render::run() {
  const io::NodeId gw = config_.gateway_node();

  // --- Initialization phase -----------------------------------------------
  auto views = co_await fs_.open(gw, kViews, unix_read());
  for (std::uint32_t r = 0; r < config_.header_reads; ++r) {
    (void)co_await views->read(config_.view_read_size);
  }

  for (std::size_t i = 0; i < 4; ++i) {
    co_await read_data_file(kData[i], config_.large_reads_3mb / 4,
                            config_.large_reads_15mb / 4);
  }

  // Scatter the terrain to the renderer group (each node selects its
  // subset; the gateway's link serializes the distribution).
  const std::uint64_t per_node = config_.data_set_bytes() / config_.renderers;
  for (std::uint32_t r = 0; r < config_.renderers; ++r) {
    co_await machine_.net().send(gw, r, per_node);
  }

  // The view control file is reopened for the render loop (the 106th open
  // and one of the 101 closes).
  co_await views->close();
  views = co_await fs_.open(gw, kViews, unix_read());
  // No seek here: the reopened handle reads from the start of the view list
  // (the staged file puts the header first, so offsets only shift; the
  // paper's Table 3 counts exactly 4 seeks, all in the terrain files).
  phases_.mark("initialization", machine_.engine().now());

  // --- Rendering phase ------------------------------------------------------
  sim::Channel<std::uint32_t> tiles(machine_.engine(),
                                    sim::Channel<std::uint32_t>::kUnbounded);
  std::vector<std::unique_ptr<sim::Channel<std::uint32_t>>> commands;
  for (std::uint32_t r = 0; r < config_.renderers; ++r) {
    commands.push_back(std::make_unique<sim::Channel<std::uint32_t>>(
        machine_.engine(), sim::Channel<std::uint32_t>::kUnbounded));
  }

  sim::TaskGroup renderers(machine_.engine());
  const std::uint64_t tile_bytes = config_.frame_bytes / config_.renderers;
  for (std::uint32_t rank = 0; rank < config_.renderers; ++rank) {
    auto renderer = [](Render& app, std::uint32_t r,
                       sim::Channel<std::uint32_t>& cmd,
                       sim::Channel<std::uint32_t>& out,
                       std::uint64_t tile) -> sim::Task<> {
      sim::Rng node_rng = app.rng_.fork(500 + r);
      for (std::uint32_t frame = 0; frame < app.config_.frames; ++frame) {
        (void)co_await cmd.recv();
        co_await app.machine_.engine().delay(
            jittered(node_rng, app.config_.frame_compute, 0.08));
        co_await app.machine_.net().send(r, app.config_.gateway_node(), tile);
        co_await out.send(r);
        if (app.checkpoint_ != nullptr) {
          co_await app.checkpoint_->at_boundary(r);
        }
      }
    };
    renderers.spawn(
        renderer(*this, rank, *commands[rank], tiles, tile_bytes));
  }

  for (std::uint32_t frame = 0; frame < config_.frames; ++frame) {
    // View coordinates: a small control read (Table 3's 100 view reads).
    (void)co_await views->read(config_.view_read_size);
    // Direct the renderer group (view parameters are tiny).
    co_await machine_.net().broadcast(gw, 1024, config_.renderers + 1);
    for (auto& cmd : commands) co_await cmd->send(frame);
    // Collect the rendered tiles; the gateway's receive link serializes the
    // 128 incoming tile messages (modeled by the interconnect's rx gate).
    for (std::uint32_t r = 0; r < config_.renderers; ++r) {
      (void)co_await tiles.recv();
    }

    if (config_.to_framebuffer) {
      co_await machine_.framebuffer().write(config_.frame_bytes);
    } else {
      auto out = co_await fs_.open(
          gw, kFramePrefix + std::to_string(frame), unix_create());
      for (std::uint32_t w = 0; w < config_.small_writes_per_frame; ++w) {
        co_await out->write(config_.small_write_size);
      }
      co_await out->write(config_.frame_bytes);
      co_await out->close();
    }
  }
  co_await renderers.join();
  phases_.mark("rendering", machine_.engine().now());

  for (auto& f : data_files_) f.reset();  // handles leak deliberately:
  // the code exits without closing the terrain files or the view file,
  // which is why the paper's Table 3 shows 106 opens but 101 closes.
  data_files_.clear();
}

}  // namespace paraio::apps
