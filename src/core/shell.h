// VeloxShell — a command interpreter over a VeloxServer, backing the
// `velox_shell` CLI (tools/velox_shell.cpp). One command in, one
// human-readable response out; all state lives in the underlying
// server, so the interpreter is trivially scriptable and testable.
//
// Commands:
//   train                         bootstrap from the loaded dataset
//   predict <uid> <item>          point prediction (Listing 1)
//   topk <uid> <k> [items...]     ranked items (candidate set or, with
//                                 no items, a full-catalog plane scan)
//   observe <uid> <item> <y>      feedback + online update
//   retrain                       force offline retraining
//   maybe-retrain                 retrain iff the model is stale
//   rollback <version>            switch back to an older version
//   versions                      version history
//   report                        quality report + cache/network stats
//   server                        server-plane admission/queue/shed state
//   save <path> | load <path>     model snapshot to/from disk
//   help                          command list
#ifndef VELOX_CORE_SHELL_H_
#define VELOX_CORE_SHELL_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/velox_server.h"
#include "storage/observation_log.h"

namespace velox {

class RequestAcceptor;

class VeloxShell {
 public:
  // `server` is borrowed; `dataset` is the ratings pool `train` uses.
  VeloxShell(VeloxServer* server, std::vector<Observation> dataset);

  // Wires a server plane (borrowed, may be null to detach) so the
  // `server` command can report admission/queue/shed state.
  void AttachServingPlane(RequestAcceptor* acceptor) { acceptor_ = acceptor; }

  // Executes one command line; returns the text to print, or an error
  // Status for malformed/failed commands. Unknown commands are
  // InvalidArgument with a pointer to `help`.
  Result<std::string> Execute(const std::string& line);

  // Help text (also returned by the `help` command).
  static std::string HelpText();

 private:
  Result<std::string> CmdTrain();
  Result<std::string> CmdPredict(const std::vector<std::string>& args);
  Result<std::string> CmdTopK(const std::vector<std::string>& args);
  Result<std::string> CmdObserve(const std::vector<std::string>& args);
  Result<std::string> CmdRetrain(const std::vector<std::string>& args);
  Result<std::string> CmdRollback(const std::vector<std::string>& args);
  Result<std::string> CmdVersions();
  Result<std::string> CmdReport();
  Result<std::string> CmdFail(const std::vector<std::string>& args);
  Result<std::string> CmdSave(const std::vector<std::string>& args);
  Result<std::string> CmdLoad(const std::vector<std::string>& args);

  VeloxServer* server_;
  RequestAcceptor* acceptor_ = nullptr;
  std::vector<Observation> dataset_;
};

}  // namespace velox

#endif  // VELOX_CORE_SHELL_H_
