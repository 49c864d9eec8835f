/**
 * @file
 * Binary serialization of dynamic traces, so expensive traces can be
 * generated once and replayed (see examples/trace_inspect).
 */

#ifndef FDIP_TRACE_TRACE_IO_H_
#define FDIP_TRACE_TRACE_IO_H_

#include <string>
#include <vector>

#include "trace/inst.h"

namespace fdip
{

/** Writes @p insts to @p path. Returns false on I/O failure. */
bool writeTraceFile(const std::string &path,
                    const std::vector<DynInst> &insts);

/** Reads a trace written by writeTraceFile. Returns false on failure
 *  or format mismatch, including a body that is not exactly the
 *  header's record count. */
bool readTraceFile(const std::string &path, std::vector<DynInst> &insts);

} // namespace fdip

#endif // FDIP_TRACE_TRACE_IO_H_
